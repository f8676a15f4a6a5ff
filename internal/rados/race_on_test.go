//go:build race

package rados

// raceEnabled: the detector makes sync.Pool drop a quarter of what is
// put back, so pooled paths allocate more under it.
const raceEnabled = true
