package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// encodeJSONRef is the reference -json output: encoding/json of the
// reference encoders' values, one document per line, wrapped as
// {"file": ..., "result": ...} in -each mode.
func encodeJSONRef(t *testing.T, v any, file string) string {
	t.Helper()
	if file != "" {
		v = struct {
			File   string `json:"file"`
			Result any    `json:"result"`
		}{File: file, Result: v}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunJSONMatchesReference holds cxquery's -json, -json -count and
// -each output byte for byte against encoding/json of
// cliutil.EncodeValue, for every value kind, and its text output
// against the cliutil text writers.
func TestRunJSONMatchesReference(t *testing.T) {
	g, err := corpus.Generate(corpus.DefaultConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	doc := core.FromGODDAG(g)
	queries := []string{
		"//w", "//line/covered::w", "//nosuch", "//line/@n", "//w/@nope",
		"string(//w)", "string(//nosuch)", `concat("<&>", '"')`, "count(//w)", "boolean(//w)", "0 div 0",
	}
	flwors := []string{
		"for $w in //w return $w",
		"for $l in //line return $l/@n",
		"for $d in //dmg return count($d/overlapping::w)",
		"for $x in //nosuch return $x",
	}
	for _, file := range []string{"", `dir/"odd" <name>.gdag`} {
		for _, quiet := range []bool{false, true} {
			for _, src := range queries {
				q := xpath.MustCompile(src)
				v, err := q.Eval(g)
				if err != nil {
					t.Fatal(err)
				}
				enc := cliutil.EncodeValue(v, 0)
				if quiet {
					enc.Nodes, enc.Attrs = nil, nil
				}
				var got bytes.Buffer
				if err := run(context.Background(), &got, doc, q, nil, xpath.Budget{}, true, quiet, file); err != nil {
					t.Fatal(err)
				}
				if want := encodeJSONRef(t, enc, file); got.String() != want {
					t.Fatalf("%s (file %q, count %v):\n  got:  %.300s\n  want: %.300s", src, file, quiet, got.String(), want)
				}
				got.Reset()
				if err := run(context.Background(), &got, doc, q, nil, xpath.Budget{}, false, quiet, file); err != nil {
					t.Fatal(err)
				}
				var text bytes.Buffer
				cliutil.WriteValue(&text, v, quiet, 0)
				if want := prefixLines(text.String(), file); got.String() != want {
					t.Fatalf("%s text (file %q, count %v):\n  got:  %.300q\n  want: %.300q", src, file, quiet, got.String(), want)
				}
			}
			for _, src := range flwors {
				fq := xquery.MustCompile(src)
				vals, err := fq.Eval(g)
				if err != nil {
					t.Fatal(err)
				}
				var ref any = map[string]int{"count": len(vals)}
				if !quiet {
					enc := make([]cliutil.ValueJSON, len(vals))
					for i, v := range vals {
						enc[i] = cliutil.EncodeValue(v, 0)
					}
					ref = enc
				}
				var got bytes.Buffer
				if err := run(context.Background(), &got, doc, nil, fq, xpath.Budget{}, true, quiet, file); err != nil {
					t.Fatal(err)
				}
				if want := encodeJSONRef(t, ref, file); got.String() != want {
					t.Fatalf("%s (file %q, count %v):\n  got:  %.300s\n  want: %.300s", src, file, quiet, got.String(), want)
				}
			}
		}
	}
}

func prefixLines(s, file string) string {
	if file == "" {
		return s
	}
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter([]byte(s), []byte("\n")) {
		if len(line) > 0 {
			out.WriteString(file + ": ")
			out.Write(line)
		}
	}
	return out.String()
}
