package lex

import "testing"

func TestLexerTokens(t *testing.T) {
	lx := New(`foo.bar 0x1F 42 ${mbl} == <= { } ;`)
	lx.Dotted = true
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == EOF {
			break
		}
		toks = append(toks, tok)
	}
	if len(toks) != 9 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].Kind != Ident || toks[0].Text != "foo.bar" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != Number || toks[1].Num != 0x1F {
		t.Fatalf("tok1 = %+v", toks[1])
	}
	if toks[2].Num != 42 {
		t.Fatalf("tok2 = %+v", toks[2])
	}
	if toks[3].Kind != MblRef || toks[3].Text != "mbl" {
		t.Fatalf("tok3 = %+v", toks[3])
	}
	if toks[4].Text != "==" || toks[5].Text != "<=" {
		t.Fatalf("operators: %+v %+v", toks[4], toks[5])
	}
}

func TestLexerComments(t *testing.T) {
	lx := New("a // line comment\n/* block\ncomment */ b")
	t1, _ := lx.Next()
	t2, _ := lx.Next()
	t3, _ := lx.Next()
	if t1.Text != "a" || t2.Text != "b" || t3.Kind != EOF {
		t.Fatalf("tokens: %v %v %v", t1, t2, t3)
	}
	if t2.Line != 3 {
		t.Fatalf("line tracking: b at line %d, want 3", t2.Line)
	}
}

func TestLexerPositions(t *testing.T) {
	lx := New("x\n  y")
	a, _ := lx.Next()
	b, _ := lx.Next()
	if a.Line != 1 || a.Col != 1 {
		t.Fatalf("a at %d:%d", a.Line, a.Col)
	}
	if b.Line != 2 || b.Col != 3 {
		t.Fatalf("b at %d:%d", b.Line, b.Col)
	}
}
