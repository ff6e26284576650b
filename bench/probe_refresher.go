package main

// schedProbe times a scheduler pass that finds nothing due: the floor every
// tick of dtserve's scheduler loop pays. (refresher.overlap_ratio comes out
// of the refresh rounds, where the serial refreshes it compares to run.)
func (p *probe) schedProbe() error {
	d, err := medianDur(p.v.sz.ProbeReps, p.b.e.RunScheduler)
	if err != nil {
		return err
	}
	p.set("sched.idle_tick_us", us(d), "us", p.v.sz.ProbeReps)
	return nil
}
