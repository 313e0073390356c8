package analysis

// All is the analyzer registry, in the order diagnostics list them.
// Adding a check means appending here and dropping fixtures under
// testdata/src/<name>/ — the golden driver test picks both up by name.
var All = []*Analyzer{
	Guardloop,
	Sentinelerr,
	Floateq,
	Ctxfirst,
	Obsnil,
	Mathrange,
	Spanend,
	Atomicwrite,
	Maporder,
	Nondeterm,
}

// Lookup returns the registered analyzer with the given name.
func Lookup(name string) (*Analyzer, bool) {
	for _, a := range All {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}
