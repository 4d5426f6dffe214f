package match

// ImpactBatch exposes the batched walk to the package's external tests,
// which pin it to Impact below the source count Impacts would batch at.
func (rg *ResultGraph) ImpactBatch(s *Scratch, sources []int32, out []Impact) {
	rg.impactBatch(s, sources, out)
}

// BatchClean reports whether s is in the state impactBatch leaves and
// expects: no set bit in the ring, no node in a bucket list.
func (s *Scratch) BatchClean() bool {
	for _, w := range s.ring {
		if w != 0 {
			return false
		}
	}
	for _, l := range s.buckets {
		if len(l) != 0 {
			return false
		}
	}
	return !s.walking
}
