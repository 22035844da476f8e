package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// renderQueries covers every value kind and every stream shape: exact
// scans, unsized pushdown and join streams, materialized node sets,
// empty node and attribute sets, and string, number and boolean
// scalars.
var renderQueries = []string{
	"//w", "//w[@n > 3]", "//line/covered::w", "//dmg/overlapping::w", "//nosuch",
	"//line/@n", "//w/@nope",
	"string(//w)", "string(//nosuch)", `concat("<&>", '"')`, "count(//w)", "boolean(//w)", "1 div 0",
}

// renderFLWORs covers node, attribute, scalar and empty tuples, and a
// query with no tuple at all.
var renderFLWORs = []string{
	"for $w in //w return $w",
	"for $l in //line return $l/@n",
	"for $w in //w return $w/@nope",
	"for $d in //dmg return count($d/overlapping::w)",
	"for $l in //line return string($l)",
	"for $x in //nosuch return $x",
}

// usRe matches the measured durations of a JSON body, which differ run
// to run.
var usRe = regexp.MustCompile(`"(elapsed_us|total_us|us)":[0-9]+`)

func maskUS(b []byte) string { return usRe.ReplaceAllString(string(b), `"$1":0`) }

// TestQueryBodiesMatchReference holds every /query body byte for byte
// against the reference renderers: JSON against encoding/json of a
// QueryResponse built from cliutil.EncodeValue, text and count against
// WriteValue and WriteFLWOR. It runs every value kind, each format,
// limits of none, 1, the exact result size and one past it, with and
// without explain and trace. Durations are masked.
func TestQueryBodiesMatchReference(t *testing.T) {
	s, _ := newFixture(t, 120, Config{})
	h := s.Handler()
	doc, err := s.cat.Get("ms")
	if err != nil {
		t.Fatal(err)
	}
	g := doc.GODDAG()

	type query struct {
		field, src string
		size       int // result lines, the unit of the node cap
		want       func(limit int, countOnly bool, text *bytes.Buffer) QueryResponse
	}
	var queries []query
	for _, src := range renderQueries {
		src := src
		v, err := xpath.MustCompile(src).Eval(g)
		if err != nil {
			t.Fatal(err)
		}
		st, err := xpath.MustCompile(src).Stream(g)
		if err != nil {
			t.Fatal(err)
		}
		plan := st.Explain()
		st.Close()
		queries = append(queries, query{"query", src, max(1, len(v.Nodes())+len(v.Attrs())),
			func(limit int, countOnly bool, text *bytes.Buffer) QueryResponse {
				cliutil.WriteValue(text, v, countOnly, limit)
				enc := cliutil.EncodeValue(v, limit)
				return QueryResponse{Doc: "ms", Query: src, Result: &enc, Plan: plan}
			}})
	}
	for _, src := range renderFLWORs {
		src := src
		vals, err := xquery.MustCompile(src).Eval(g)
		if err != nil {
			t.Fatal(err)
		}
		var all bytes.Buffer
		cliutil.WriteFLWOR(&all, vals, false, 0)
		queries = append(queries, query{"flwor", src, bytes.Count(all.Bytes(), []byte("\n")),
			func(limit int, countOnly bool, text *bytes.Buffer) QueryResponse {
				cliutil.WriteFLWOR(text, vals, countOnly, limit)
				resp := QueryResponse{Doc: "ms", Query: src}
				remaining := limit
				for _, v := range vals {
					if limit > 0 && remaining <= 0 {
						resp.Truncated = true
						break
					}
					enc := cliutil.EncodeValue(v, remaining)
					resp.Truncated = resp.Truncated || enc.Truncated
					if v.IsNodeSet() {
						remaining -= len(enc.Nodes) + len(enc.Attrs)
					} else {
						remaining--
					}
					resp.Results = append(resp.Results, enc)
				}
				return resp
			}})
	}

	for _, q := range queries {
		for _, limit := range []int{0, 1, q.size, q.size + 1} {
			for _, format := range []string{"json", "text", "count"} {
				for _, flags := range []string{"", `,"explain":true`, `,"trace":true`} {
					body := fmt.Sprintf(`{"doc":"ms",%q:%q,"format":%q,"limit":%d%s}`, q.field, q.src, format, limit, flags)
					w := post(t, h, body)
					if w.Code != http.StatusOK {
						t.Fatalf("%s: %d %s", body, w.Code, w.Body.String())
					}
					var text bytes.Buffer
					want := q.want(limit, format == "count", &text)
					if format != "json" {
						if w.Body.String() != text.String() {
							t.Fatalf("%s:\n  got:  %.300q\n  want: %.300q", body, w.Body.String(), text.String())
						}
						continue
					}
					if flags == "" || q.field == "flwor" {
						want.Plan = nil // FLWOR bodies carry no plan
					}
					if flags == `,"trace":true` {
						// The stages are measured; the renderer is held to
						// the shape the body reports.
						var got QueryResponse
						if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
							t.Fatalf("%s: %v", body, err)
						}
						if got.Trace == nil {
							t.Fatalf("%s: no trace", body)
						}
						want.Trace = got.Trace
					}
					var ref bytes.Buffer
					enc := json.NewEncoder(&ref)
					enc.SetEscapeHTML(false)
					if err := enc.Encode(want); err != nil {
						t.Fatal(err)
					}
					if got, exp := maskUS(w.Body.Bytes()), maskUS(ref.Bytes()); got != exp {
						t.Fatalf("%s:\n  got:  %.400s\n  want: %.400s", body, got, exp)
					}
				}
			}
		}
	}
}
