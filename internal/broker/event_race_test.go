//go:build race

package broker

// raceBuild gates the assertions the race runtime's own overhead would
// drown: sub-millisecond latency bounds and allocation counts.
const raceBuild = true
