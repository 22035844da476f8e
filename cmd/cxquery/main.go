// Command cxquery evaluates Extended XPath queries over concurrent XML
// documents, including the overlapping/covering/covered axes the paper
// adds for concurrent markup.
//
// Usage:
//
//	cxquery -q "//dmg/overlapping::w" [-format auto] file.xml...
//	cxquery -q "count(//w)" -fig1
//	cxquery -q "//w" -each a.xml b.gdag c.xml
//	cxquery -flwor "for $w in //w return $w" file.xml...
//
// By default the input files form ONE document (multiple files = the
// distributed representation, one hierarchy per file). With -each, every
// file is a separate document — any representation, including binary
// .gdag stores — and the query, compiled once, is evaluated against each
// in turn; output lines gain a "file:" prefix column.
//
// Node results print one per line as hierarchy:tag[span] "text" — the
// same renderer (internal/cliutil) the cxserve HTTP service uses for its
// text format, so CLI and server output are byte-identical. -json emits
// the server's JSON encoding instead.
//
// -timeout and -max-visited bound the evaluation the same way the
// server's request deadlines and node budgets do: a query that exceeds
// either stops at the next evaluator checkpoint and exits non-zero,
// instead of running a hostile or mistyped expression forever.
//
// -trace prints a stage breakdown (compile/load/eval, plus nodes
// visited) to stderr after the results — the offline twin of the
// server's {"trace": true} explain-analyze, rendered by the same
// internal/cliutil plumbing.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

func main() {
	var (
		query   = flag.String("q", "", "Extended XPath query (required unless -flwor)")
		flwor   = flag.String("flwor", "", "FLWOR query (for/let/where/order by/return)")
		format  = flag.String("format", "auto", "input representation")
		each    = flag.Bool("each", false, "treat every input file as its own document")
		jsonOut = flag.Bool("json", false, "emit the JSON encoding (shared with cxserve)")
		demo    = flag.Bool("fig1", false, "use the bundled Figure 1 fragment")
		quiet   = flag.Bool("count", false, "print only the number of result nodes")
		timeout = flag.Duration("timeout", 0, "abort evaluation after this long (0 = no limit)")
		visited = flag.Int("max-visited", 0, "abort evaluation after visiting this many nodes (0 = no limit)")
		trace   = flag.Bool("trace", false, "print a stage breakdown (compile/load/eval) to stderr")
	)
	flag.Parse()
	if *query == "" && *flwor == "" {
		fatal(fmt.Errorf("missing -q or -flwor query"))
	}
	if *query != "" && *flwor != "" {
		fatal(fmt.Errorf("use either -q or -flwor, not both"))
	}
	if *each && *demo {
		fatal(fmt.Errorf("-each cannot be combined with -fig1"))
	}

	// One trace spans the whole invocation; in -each mode, same-name
	// stages from successive documents merge. Printed to stderr at exit
	// so stdout stays parseable.
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace("cxquery")
		defer cliutil.WriteTrace(os.Stderr, tr)
	}

	// Compile exactly once, whatever the number of input documents.
	var (
		xq  *xpath.Query
		fq  *xquery.Query
		err error
	)
	sp := tr.Begin("compile")
	if *query != "" {
		xq, err = xpath.Compile(*query)
	} else {
		fq, err = xquery.Compile(*flwor)
	}
	sp.End()
	if err != nil {
		fatal(err)
	}

	// The evaluation lifecycle: one deadline and one node budget for the
	// whole invocation, shared across -each documents, enforced at the
	// evaluator's amortized checkpoints.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx = obs.WithTrace(ctx, tr)
	budget := xpath.Budget{MaxVisited: *visited}

	if *each {
		paths := flag.Args()
		if len(paths) == 0 {
			fatal(fmt.Errorf("no input files"))
		}
		for _, p := range paths {
			sp := tr.Begin("load")
			doc, err := cliutil.Load(*format, []string{p})
			sp.End()
			if err != nil {
				fatal(err)
			}
			if err := run(ctx, os.Stdout, doc, xq, fq, budget, *jsonOut, *quiet, p); err != nil {
				fatal(err)
			}
		}
		return
	}

	var doc *core.Document
	sp = tr.Begin("load")
	if *demo {
		doc, err = core.Parse(corpus.Fig1Sources())
	} else {
		doc, err = cliutil.Load(*format, flag.Args())
	}
	sp.End()
	if err != nil {
		fatal(err)
	}
	if err := run(ctx, os.Stdout, doc, xq, fq, budget, *jsonOut, *quiet, ""); err != nil {
		fatal(err)
	}
}

// run evaluates the pre-compiled query against one document and writes
// the result to w through the shared cliutil renderers. file is the
// input path in -each mode (empty otherwise): text lines get it as a
// prefix column, JSON output wraps it into the emitted object so every
// line stays valid JSON.
func run(ctx context.Context, w io.Writer, doc *core.Document, xq *xpath.Query, fq *xquery.Query, budget xpath.Budget, jsonOut, quiet bool, file string) error {
	var (
		v    xpath.Value
		vals []xpath.Value
		err  error
	)
	if fq != nil {
		vals, err = fq.EvalContext(ctx, doc.GODDAG(), budget)
	} else {
		v, err = xq.EvalContext(ctx, doc.GODDAG(), budget)
	}
	if err != nil {
		return err
	}
	if !jsonOut {
		pw := &prefixWriter{w: w}
		if file != "" {
			pw.prefix = file + ": "
		}
		if fq != nil {
			cliutil.WriteFLWOR(pw, vals, quiet, 0)
		} else {
			cliutil.WriteValue(pw, v, quiet, 0)
		}
		return pw.err
	}
	// One JSON document per input; in -each mode the result nests under
	// {"file": ..., "result": ...} so consumers can stream one parseable
	// object per file.
	var buf []byte
	if file != "" {
		buf = append(buf, `{"file":`...)
		buf = cliutil.AppendJSONString(buf, file)
		buf = append(buf, `,"result":`...)
	}
	switch {
	case fq != nil && quiet:
		buf = append(buf, `{"count":`...)
		buf = cliutil.AppendUint(buf, int64(len(vals)))
		buf = append(buf, '}')
	case fq != nil:
		buf, _ = cliutil.AppendValuesJSON(buf, vals, 0)
	default:
		// -count with -json: sizes only, no node dump.
		buf, _, _ = cliutil.AppendValueJSON(buf, v, quiet, 0)
	}
	if file != "" {
		buf = append(buf, '}')
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// prefixWriter writes lines to w, prefixing each with a fixed string
// (the file name in -each mode; empty otherwise).
type prefixWriter struct {
	w      io.Writer
	prefix string
	buf    []byte
	err    error
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := w.buf[:i+1]
		if w.prefix != "" {
			if _, err := io.WriteString(w.w, w.prefix); err != nil {
				w.err = err
				return 0, err
			}
		}
		if _, err := w.w.Write(line); err != nil {
			w.err = err
			return 0, err
		}
		w.buf = w.buf[i+1:]
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxquery:", err)
	os.Exit(1)
}
