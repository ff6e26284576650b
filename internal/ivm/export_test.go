package ivm

// SetKeyedLookups turns the keyed boundary path (keyed.go) on or off and
// returns the previous setting, so that tests can compare its change sets
// with the scan path's.
func SetKeyedLookups(on bool) (was bool) {
	was, keyedLookups = keyedLookups, on
	return was
}
