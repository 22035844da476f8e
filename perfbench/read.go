package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// maxResults is the server's default node cap per response; the traced
// composition renders under the same cap.
const maxResults = 10000

// maxPooledBody mirrors the handler's response-buffer pool, which drops
// buffers grown past 1 MiB instead of keeping them: the composition
// starts such reads from an empty buffer too, so that its encode stage
// pays the same growth as the handler's.
const maxPooledBody = 1 << 20

// queryClass is one kind of read in a mix.
type queryClass struct {
	query  string // Extended XPath, or a FLWOR query when flwor is set
	flwor  bool
	format string // json, text or count
	weight int    // ops of this class per pass and document
}

func (q queryClass) String() string { return q.format + " " + q.query }

// body is the POST /query request for q on doc.
func (q queryClass) body(doc string, trace bool) []byte {
	req := server.QueryRequest{Doc: doc, Format: q.format, Trace: trace}
	if q.flwor {
		req.FLWOR = q.query
	} else {
		req.Query = q.query
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain struct of strings: a bug
	}
	return b
}

// readOp is one prebuilt read: its request and the hash of the
// response it must produce.
type readOp struct {
	doc   string
	class int
	req   *request
	want  uint32
}

// composer issues reads through the public calls the /query handler
// composes — catalog.ViewContext, xpath Stream or xquery Eval, and the
// cliutil encoders — so that a traced run can time each layer.
type composer struct {
	cat *catalog.Catalog
	xq  map[string]*xpath.Query
	fq  map[string]*xquery.Query
	out bytes.Buffer
	ne  cliutil.NodeEncoder
}

func newComposer(cat *catalog.Catalog) *composer {
	return &composer{cat: cat, xq: map[string]*xpath.Query{}, fq: map[string]*xquery.Query{}}
}

// readStats describes one composed read.
type readStats struct {
	results  int   // nodes or values rendered
	visited  int64 // nodes the xpath evaluation visited
	bytes    int   // rendered body size
	lockWait time.Duration
	view     int // index of the catalog.view span
}

// read runs q on doc under span parent of operation op. The rendered
// body stays in c.out until the next read.
func (c *composer) read(tr *tracer, op, parent int, doc string, q queryClass) (readStats, error) {
	var rs readStats
	rs.view = tr.begin("catalog.view", op, parent)
	viewStart := time.Now()
	err := c.cat.ViewContext(context.Background(), doc, func(d *core.Document) error {
		rs.lockWait = time.Since(viewStart)
		g := d.GODDAG()
		if c.out.Cap() > maxPooledBody {
			c.out = bytes.Buffer{}
		}
		c.out.Reset()
		if q.flwor {
			fq, err := c.compileFLWOR(q.query)
			if err != nil {
				return err
			}
			s := tr.begin("xquery.eval", op, rs.view)
			vals, err := fq.Eval(g)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("cliutil.encode", op, rs.view)
			rs.results, err = c.renderFLWOR(vals, q.format)
			tr.end(s)
			return err
		}
		xq, err := c.compile(q.query)
		if err != nil {
			return err
		}
		lim := xpath.NewCountingLimiter()
		s := tr.begin("xpath.eval", op, rs.view)
		st, err := xq.StreamWithOptions(g, xpath.Options{Limiter: lim})
		tr.end(s)
		if err != nil {
			return err
		}
		defer st.Close()
		s = tr.begin("cliutil.encode", op, rs.view)
		rs.results, err = c.render(st, q.format)
		tr.end(s)
		rs.visited = lim.Visited()
		return err
	})
	tr.end(rs.view)
	rs.bytes = c.out.Len()
	return rs, err
}

func (c *composer) compile(src string) (*xpath.Query, error) {
	if q, ok := c.xq[src]; ok {
		return q, nil
	}
	q, err := xpath.Compile(src)
	if err == nil {
		c.xq[src] = q
	}
	return q, err
}

func (c *composer) compileFLWOR(src string) (*xquery.Query, error) {
	if q, ok := c.fq[src]; ok {
		return q, nil
	}
	q, err := xquery.Compile(src)
	if err == nil {
		c.fq[src] = q
	}
	return q, err
}

// render encodes a stream the way the handler does for each format.
// The text and count renderings are byte-identical to the handler's.
func (c *composer) render(st *xpath.Stream, format string) (int, error) {
	if v, ok := st.Value(); ok {
		switch format {
		case "json":
			enc := cliutil.EncodeValue(v, maxResults)
			return 1, json.NewEncoder(&c.out).Encode(enc)
		default:
			cliutil.WriteValue(&c.out, v, format == "count", maxResults)
			return 1, nil
		}
	}
	switch format {
	case "json":
		buf := c.out.AvailableBuffer()
		buf = append(buf, `{"type":"node-set"`...)
		n := 0
		for n < maxResults {
			nd, err := st.Next()
			if err != nil {
				return n, err
			}
			if nd == nil {
				break
			}
			if n == 0 {
				buf = append(buf, `,"nodes":[`...)
			} else {
				buf = append(buf, ',')
			}
			buf = c.ne.AppendNodeJSON(buf, nd)
			n++
		}
		if n > 0 {
			buf = append(buf, ']')
		}
		buf = append(buf, `,"count":`...)
		buf = cliutil.AppendUint(buf, int64(n))
		buf = append(buf, '}', '\n')
		c.out.Write(buf)
		return n, nil
	case "text":
		return cliutil.WriteNodesText(&c.out, st, maxResults)
	default:
		n, err := st.Count()
		buf := cliutil.AppendUint(c.out.AvailableBuffer(), int64(n))
		c.out.Write(append(buf, '\n'))
		return n, err
	}
}

func (c *composer) renderFLWOR(vals []xpath.Value, format string) (int, error) {
	switch format {
	case "json":
		out := make([]cliutil.ValueJSON, 0, len(vals))
		for _, v := range vals {
			out = append(out, cliutil.EncodeValue(v, maxResults))
		}
		return len(vals), json.NewEncoder(&c.out).Encode(out)
	default:
		cliutil.WriteFLWOR(&c.out, vals, format == "count", maxResults)
		return len(vals), nil
	}
}

// traceStages is the part of a "trace": true response the cross-check
// reads.
type traceStages struct {
	Trace struct {
		Stages []struct {
			Name string `json:"name"`
			US   int64  `json:"us"`
		} `json:"stages"`
	} `json:"trace"`
}

// crossCheck times one json read of q from outside (evaluation plus
// encoding) and then sends the same read with "trace": true, returning
// the server's own plan+eval+encode stages for comparison. Each side
// runs crossCheckReps times and keeps its fastest: a large json result
// allocates megabytes, and a collection that happens to fall on one
// side alone would otherwise decide the comparison.
func (c *composer) crossCheck(h http.Handler, w *respWriter, req *request, doc string, q queryClass) (outside, inside time.Duration, err error) {
	jq := q
	jq.format = "json"
	for i := 0; i < crossCheckReps; i++ {
		scratch := newTracer()
		if _, err := c.read(scratch, scratch.op(), -1, doc, jq); err != nil {
			return 0, 0, err
		}
		if d := evalEncode(scratch.times()); i == 0 || d < outside {
			outside = d
		}
	}
	for i := 0; i < crossCheckReps; i++ {
		req.serve(h, w)
		if w.status != http.StatusOK {
			return 0, 0, fmt.Errorf("traced %s: status %d", q, w.status)
		}
		var ts traceStages
		if err := json.Unmarshal(w.body, &ts); err != nil {
			return 0, 0, fmt.Errorf("traced %s: %w", q, err)
		}
		var d time.Duration
		for _, s := range ts.Trace.Stages {
			switch s.Name {
			case "plan", "eval", "encode":
				d += time.Duration(s.US) * time.Microsecond
			}
		}
		if i == 0 || d < inside {
			inside = d
		}
	}
	return outside, inside, nil
}
