//go:build race

package partition

// The race detector slows the frozen and production swarms tenfold, so
// under it TestPSOMatchesFrozen runs the smallest Fig. 7 swarm only; the
// full grid of sizes runs without it.
func init() { psoFrozenSwarms = psoFrozenSwarms[:1] }
