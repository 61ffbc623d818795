package lint

// All returns the full qtenon-lint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		ScratchArena,
		MetricsDiscipline,
		FloatCompare,
		EventRetention,
		ParSafety,
	}
}

// ByName resolves a comma-separated analyzer selection; unknown names
// return nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
