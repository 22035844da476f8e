package xquery_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/sacx"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// FuzzFLWOR: arbitrary FLWOR text must be rejected cleanly, or
// evaluate under a node budget without a panic or hang, and every tuple
// it returns must render through the append encoder exactly as
// encoding/json renders the reference encoder's value.
func FuzzFLWOR(f *testing.F) {
	seeds := []string{
		`for $w in //w return string($w)`,
		`for $w in //w return $w`,
		`for $d in //dmg for $w in $d/overlapping::w return concat(name($d), ' damages ', string($w))`,
		`for $r in //line let $n := count($r/covered::w) return $n`,
		`for $w in //w where contains(string($w), 'æ') return $w/@n`,
		`for $w in //w order by string($w) descending return $w`,
		`for $l in //line return $l/@n`,
		`for $w in //w return $w/@nope`,
		`for $w in //w return $w/overlapping::* | $w`,
		`let $x := //w return count($x) div 0`,
		`for $w in //w return boolean($w/overlapping::dmg)`,
		`for $x in //nosuch return $x`,
		// Malformed: missing clauses, bad variables, non-node iteration.
		`for $w //w return 1`, `return 1`, `for $w in 1 return $w`,
		`for $w in //w return string($zzz)`, `for in return`, ``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	doc, err := sacx.Build([]sacx.Source{
		{Hierarchy: "physical", Data: []byte(`<r><line n="1">swa hwæt swa</line><line n="2"> he us sægde</line></r>`)},
		{Hierarchy: "words", Data: []byte(`<r><w n="1">swa</w> <w n="2">hwæt</w> <w n="3">swa</w> <w>he</w> <w>us</w> <w>sægde</w></r>`)},
		{Hierarchy: "damage", Data: []byte(`<r>swa hw<dmg type="&quot;stain&quot;">æt sw</dmg>a he us sægde</r>`)},
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, src string) {
		q, err := xquery.Compile(src)
		if err != nil {
			return // rejected cleanly
		}
		vals, err := q.EvalContext(context.Background(), doc, xpath.Budget{MaxVisited: 20_000})
		if err != nil {
			return // an evaluation error or an exhausted budget, not a crash
		}
		for _, v := range vals {
			for _, limit := range []int{0, 2} {
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				enc.SetEscapeHTML(false)
				if err := enc.Encode(cliutil.EncodeValue(v, limit)); err != nil {
					t.Fatal(err)
				}
				got, _, _ := cliutil.AppendValueJSON(nil, v, false, limit)
				if string(got)+"\n" != want.String() {
					t.Fatalf("%q limit=%d: a %s tuple renders as\n  %s\nwant\n  %s", src, limit, v.Kind(), got, want.String())
				}
			}
		}
	})
}
