package graph

// FreshFingerprint recomputes the fingerprint, bypassing the cache.
func (g *Graph) FreshFingerprint() string { return g.fingerprint() }
