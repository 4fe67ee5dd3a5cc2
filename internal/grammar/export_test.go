package grammar

// NodeCount reports how many distinct nodes g's DAG has: shared
// subgrammars count once.
func NodeCount(g *Grammar) int {
	seen := make(map[*Grammar]bool)
	var walk func(*Grammar)
	walk = func(n *Grammar) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		walk(n.l)
		walk(n.r)
	}
	walk(g)
	return len(seen)
}
