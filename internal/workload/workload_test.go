package workload

import "testing"

func TestEditorPositionsStayValid(t *testing.T) {
	e := NewEditor("s1", 0, 7)
	length := 0
	for i := 0; i < 1000; i++ {
		ed := e.Next()
		switch ed.Kind {
		case EditInsert:
			if ed.Pos < 0 || ed.Pos > length {
				t.Fatalf("insert pos %d out of [0,%d]", ed.Pos, length)
			}
			length++
		case EditDelete:
			if ed.Pos < 0 || ed.Pos >= length {
				t.Fatalf("delete pos %d out of [0,%d)", ed.Pos, length)
			}
			length--
		}
	}
	if length <= 0 {
		t.Fatalf("editor never grows the doc: %d", length)
	}
}

func TestEditorDeterministic(t *testing.T) {
	a := NewEditor("s1", 5, 42)
	b := NewEditor("s1", 5, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestEditorSetLength(t *testing.T) {
	e := NewEditor("s1", 0, 1)
	e.SetLength(100)
	ed := e.Next()
	if ed.Kind == EditInsert && ed.Pos > 100 {
		t.Fatalf("pos %d beyond synced length", ed.Pos)
	}
	e.SetLength(-5) // ignored
	_ = e.Next()
}

func TestZipfSkew(t *testing.T) {
	z := NewZipfKeys(10, 1.5, 3)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[z.Next()]++
	}
	hot := counts["doc-000"]
	if hot < 2000 {
		t.Fatalf("hottest key drew only %d/5000", hot)
	}
	if len(z.Keys()) != 10 {
		t.Fatalf("keys %d", len(z.Keys()))
	}
	// Degenerate parameters normalize.
	z2 := NewZipfKeys(0, 0.5, 1)
	if z2.Next() != "doc-000" {
		t.Fatalf("single-key generator broken")
	}
}
