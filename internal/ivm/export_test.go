package ivm

// SetKeyedLookups turns the keyed boundary path (keyed.go) on or off and
// returns the previous setting, so that tests can compare its change sets
// with the scan path's.
func SetKeyedLookups(on bool) (was bool) {
	was, keyedLookups = keyedLookups, on
	return was
}

// SetAccumulators turns the stored-accumulator path (accum.go) on or off
// and returns the previous setting, so that tests can compare its change
// sets with the boundary path's.
func SetAccumulators(on bool) (was bool) {
	was, accumulators = accumulators, on
	return was
}
