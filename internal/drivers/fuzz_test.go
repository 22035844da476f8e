package drivers

import (
	"testing"

	"repro/internal/goddag"
)

// singleFile lists the single-file formats with their decoder and
// encoder.
var singleFile = []struct {
	name   string
	decode func([]byte) (*goddag.Document, error)
	encode func(*goddag.Document, EncodeOptions) ([]byte, error)
}{
	{"milestones", DecodeMilestones, EncodeMilestones},
	{"fragmentation", DecodeFragmentation, EncodeFragmentation},
	{"standoff", DecodeStandoff, EncodeStandoff},
}

// FuzzImport feeds arbitrary bytes to each single-file decoder. A
// decoder may reject its input but must not panic. A document it accepts
// must pass Check, and encoding it in the same format and decoding that
// again must give the same document: decode∘encode∘decode = decode. A
// document standoff accepts must also survive the milestone format,
// which writes its tags and attribute names as XML names.
func FuzzImport(f *testing.F) {
	doc := coextensiveDoc(f)
	for _, c := range singleFile {
		for _, dom := range []string{"h1", "h2"} {
			enc, err := c.encode(doc, EncodeOptions{Dominant: dom})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Add([]byte(`<r>ab<x>cd</x>e</r>`))
	f.Add([]byte(`<r chx-hierarchies="a b"><w chx-s="b.0">x</w><w chx-e="b.0"/></r>`))
	f.Add([]byte(`<standoff root="r"><text>ab</text><hierarchy name="h"><el tag="a b" start="0" end="1"><at n="1x" v="v"/></el></hierarchy></standoff>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range singleFile {
			d, err := c.decode(data)
			if err != nil {
				continue
			}
			if err := d.Check(); err != nil {
				t.Fatalf("%s: decoded document breaks invariants: %v", c.name, err)
			}
			enc, err := c.encode(d, EncodeOptions{})
			if err != nil {
				if len(d.Hierarchies()) == 0 {
					continue // no hierarchy to make dominant
				}
				t.Fatalf("%s: decoded document does not encode: %v", c.name, err)
			}
			again, err := c.decode(enc)
			if err != nil {
				t.Fatalf("%s: re-decode: %v\n%s", c.name, err, enc)
			}
			if got, want := goddag.Dump(again), goddag.Dump(d); got != want {
				t.Fatalf("%s: decode∘encode∘decode differs from decode:\n got %s\nwant %s\nencoded %s", c.name, got, want, enc)
			}
			if c.name != "standoff" || len(d.Hierarchies()) == 0 {
				continue // milestones need a hierarchy to make dominant
			}
			ms, err := EncodeMilestones(d, EncodeOptions{})
			if err != nil {
				t.Fatalf("standoff document does not encode as milestones: %v", err)
			}
			back, err := DecodeMilestones(ms)
			if err != nil {
				t.Fatalf("standoff document re-decoded from milestones: %v\n%s", err, ms)
			}
			if got, want := goddag.Dump(back), goddag.Dump(d); got != want {
				t.Fatalf("standoff→milestones→decode differs from the standoff decode:\n got %s\nwant %s\nencoded %s", got, want, ms)
			}
		}
	})
}
