// Package cliutil holds the input/output plumbing shared by the cmd/
// tools: loading a concurrent document from any representation, naming
// hierarchies from file names, and writing multi-file output.
package cliutil

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/faultfs"
	"repro/internal/sacx"
	"repro/internal/store"
)

// Load reads a concurrent document.
//
// For the distributed format, paths are one XML file per hierarchy and
// each hierarchy is named after its file (base name without extension).
// For the single-file formats exactly one path is expected. Format "auto"
// guesses: multiple paths mean distributed; a single file is sniffed for
// the binary GODDAG magic, the standoff root element, or chx- metadata,
// falling back to a plain single-hierarchy document.
func Load(format string, paths []string) (*core.Document, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no input files")
	}
	if format == "auto" {
		format = guessFormat(paths)
	}
	switch format {
	case "gdag":
		if len(paths) != 1 {
			return nil, fmt.Errorf("format gdag expects exactly one input file")
		}
		// v3 files open through the mapping path — the image is
		// validated in full, nodes materialize lazily on first touch.
		// v2 files report ErrV2 and take the streaming decoder below.
		g, _, err := store.OpenMappedDoc(faultfs.OS, paths[0])
		if err == nil {
			return core.FromGODDAG(g), nil
		}
		if !errors.Is(err, store.ErrV2) {
			return nil, err
		}
		f, err := os.Open(paths[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.Load(f)
	case "distributed":
		var srcs []sacx.Source
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, sacx.Source{Hierarchy: HierarchyName(p), Data: data})
		}
		return core.Parse(srcs)
	case "milestones", "fragmentation", "standoff":
		if len(paths) != 1 {
			return nil, fmt.Errorf("format %s expects exactly one input file", format)
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			return nil, err
		}
		f, err := drivers.ParseFormat(format)
		if err != nil {
			return nil, err
		}
		return core.Import(f, data)
	default:
		return nil, fmt.Errorf("unknown format %q (distributed, milestones, fragmentation, standoff, gdag, auto)", format)
	}
}

// guessFormat sniffs inputs. Only the first 4 KiB of the file is read —
// sniffing a large corpus file must not cost a full read before the
// actual load reads it again.
func guessFormat(paths []string) string {
	if len(paths) > 1 {
		return "distributed"
	}
	f, err := os.Open(paths[0])
	if err != nil {
		return "distributed" // let Load surface the open error
	}
	defer f.Close()
	buf := make([]byte, 4096)
	n, _ := io.ReadFull(f, buf)
	data := buf[:n]
	if bytes.HasPrefix(data, []byte("GDAG")) || strings.HasSuffix(paths[0], ".gdag") {
		return "gdag"
	}
	head := string(data)
	switch {
	case strings.Contains(head, "<standoff"):
		return "standoff"
	case strings.Contains(head, "chx-id=") || strings.Contains(head, "chx-part="):
		return "fragmentation"
	case strings.Contains(head, "chx-s=") || strings.Contains(head, "chx-hierarchies="):
		return "milestones"
	default:
		return "distributed" // plain XML: a one-hierarchy distributed doc
	}
}

// HierarchyName derives a hierarchy name from a file path.
func HierarchyName(path string) string {
	base := filepath.Base(path)
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

// ParseDTDSpecs parses repeated "hierarchy=path" flags and installs the
// DTDs on the document.
func ParseDTDSpecs(doc *core.Document, specs []string) error {
	for _, spec := range specs {
		i := strings.IndexByte(spec, '=')
		if i <= 0 {
			return fmt.Errorf("bad -dtd %q: want hierarchy=path", spec)
		}
		hier, path := spec[:i], spec[i+1:]
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := doc.SetDTD(hier, data); err != nil {
			return fmt.Errorf("dtd %s: %w", hier, err)
		}
	}
	return nil
}

// WriteOutputs writes named outputs either to a directory (one file per
// entry, named <key>.xml) or, for a single entry, to the given file (or
// stdout when out is "-").
func WriteOutputs(out string, outputs map[string][]byte) error {
	if out == "-" || out == "" {
		keys := make([]string, 0, len(outputs))
		for k := range outputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if len(outputs) > 1 {
				fmt.Printf("<!-- %s -->\n", k)
			}
			os.Stdout.Write(outputs[k])
			fmt.Println()
		}
		return nil
	}
	if len(outputs) == 1 {
		for _, data := range outputs {
			return os.WriteFile(out, data, 0o644)
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for k, data := range outputs {
		if err := os.WriteFile(filepath.Join(out, k+".xml"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// StringList is a repeatable string flag.
type StringList []string

// String implements flag.Value.
func (s *StringList) String() string { return strings.Join(*s, ",") }

// Set implements flag.Value.
func (s *StringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
