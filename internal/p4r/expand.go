package p4r

import "slices"

// The expansion of §4.1 (Figs. 5–6): an action that references a
// malleable field is specialised into one action per combination of its
// fields' alternatives, and a table that matches or runs such a field
// carries a ternary column per alternative, a selector column per field
// and one concrete entry per combination. These two functions say which
// fields; the analyzer's size check and the compiler's lowering both ask
// them, and the compiler's plan lists the combinations for the agent.

// SpecialisedOver returns the malleable fields action a specialises
// over: the distinct fields of fields its body references, by first use.
func SpecialisedOver(a *ActionDecl, fields map[string]*MblField) []string {
	var out []string
	for _, call := range a.Body {
		for _, arg := range call.Args {
			if arg.Kind == ArgMblRef && fields[arg.Mbl] != nil && !slices.Contains(out, arg.Mbl) {
				out = append(out, arg.Mbl)
			}
		}
	}
	return out
}

// ExpandedOver returns the malleable fields table t expands over, in
// selector-column order: the fields its reads match, then each listed
// action's SpecialisedOver fields, by first use. An action missing from
// actions adds none.
func ExpandedOver(t *TableDecl, fields map[string]*MblField, actions map[string]*ActionDecl) []string {
	var out []string
	note := func(name string) {
		if fields[name] != nil && !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	for _, rk := range t.Reads {
		if rk.Target.Kind == ArgMblRef {
			note(rk.Target.Mbl)
		}
	}
	for _, an := range t.Actions {
		if a := actions[an]; a != nil {
			for _, fn := range SpecialisedOver(a, fields) {
				note(fn)
			}
		}
	}
	return out
}
