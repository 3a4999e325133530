package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile the traced run records with
// runtime/pprof and attributes its samples to the engine's layers. The
// standard library writes profiles but cannot read them, so the few
// profile.proto fields the attribution needs are decoded here.

const modulePrefix = "github.com/duoquest/duoquest/"

// callerLayer marks packages whose code has no layer of its own: the query
// IR and the table sketch are vocabulary every layer speaks, so their frames
// are charged to the layer that called them (a Query.Clone during state
// expansion is enumeration work; a Satisfies inside verify is verification).
const callerLayer = "(caller)"

// packageLayers maps every package under internal/ to the layer its CPU
// time is charged to. The service path is admission → enumerate (with
// guidance scoring and semantic pruning) → verify → sqlexec → storage.
// Packages off that path belong to the workload generators or to the
// paper's baseline systems.
var packageLayers = map[string]string{
	"autocomplete":    "service",
	"dataset":         "workload",
	"enumerate":       "enumerate",
	"experiments":     "baseline",
	"faultinject":     "service",
	"guidance":        "guidance",
	"loadgen":         "workload",
	"nli":             "baseline",
	"pbe":             "baseline",
	"schemagraph":     "enumerate",
	"semrules":        "semrules",
	"service":         "service",
	"simulate":        "baseline",
	"sqlexec":         "sqlexec",
	"sqlir":           callerLayer,
	"sqlparse":        "workload",
	"storage":         "storage",
	"storage/segment": "storage",
	"tsq":             callerLayer,
	"verify":          "verify",
}

// Layers that do not come from packageLayers.
const (
	layerGC    = "runtime.gc"    // collector work, background or assist
	layerOther = "runtime.other" // scheduler and stacks with no repo frame
	layerBench = "bench"         // the benchmark's own code
)

// verifyStages maps the verifier's stage methods to stage names.
var verifyStages = []struct{ fn, stage string }{
	{"verify.(*Verifier).verifySemantics", "semantics"},
	{"verify.(*Verifier).verifyColumnTypes", "column-types"},
	{"verify.(*Verifier).verifyByColumn", "by-column"},
	{"verify.(*Verifier).verifyByRow", "by-row"},
	{"verify.(*Verifier).verifyByOrder", "by-order"},
}

// profileShares is a CPU profile reduced to shares of its samples.
type profileShares struct {
	samples int64
	// layer: every sample charged to exactly one layer (shares sum to 1).
	layer map[string]float64
	// inclusive: shares of samples with a named function anywhere on the
	// stack (verify stages, memo-key hashing, executor entry points).
	inclusive map[string]float64
}

// pkgOf returns the import path of a symbol name such as
// "github.com/x/y/internal/verify.(*Verifier).verifyByRow".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfFunc returns the layer a frame belongs to, callerLayer for frames
// charged to their caller, or "" for frames outside the repository.
func layerOfFunc(fn string) string {
	pkg := pkgOf(fn)
	if !strings.HasPrefix(pkg, modulePrefix) {
		return ""
	}
	rel := strings.TrimPrefix(pkg, modulePrefix)
	if strings.HasPrefix(rel, "internal/") {
		if l, ok := packageLayers[strings.TrimPrefix(rel, "internal/")]; ok {
			return l
		}
	}
	return layerBench
}

// isGCFrame reports collector frames: background mark and sweep workers,
// mark assists charged to allocating goroutines, and write barriers.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.sweepone" || fn == "runtime.wbBufFlush"
}

// attribute charges one stack (leaf first) to a layer: a collector frame
// anywhere makes it GC time; otherwise the innermost repository frame with
// a layer of its own owns it, so runtime and standard-library work
// (allocation, maps, hashing) counts toward the layer that asked for it.
func attribute(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return layerGC
		}
	}
	for _, fn := range stack {
		if l := layerOfFunc(fn); l != "" && l != callerLayer {
			return l
		}
	}
	return layerOther
}

// inclusiveKeys returns the inclusive buckets a stack counts toward.
func inclusiveKeys(stack []string) []string {
	var keys []string
	add := func(k string) {
		for _, have := range keys {
			if have == k {
				return
			}
		}
		keys = append(keys, k)
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, modulePrefix+"internal/") {
			continue
		}
		short := strings.TrimPrefix(fn, modulePrefix+"internal/")
		for _, vs := range verifyStages {
			if strings.HasPrefix(short, vs.fn) {
				add("verify." + vs.stage)
			}
		}
		switch {
		case strings.HasPrefix(short, "verify.existsKey"),
			strings.HasPrefix(short, "verify.columnCellKey"),
			strings.HasPrefix(short, "verify.(*fnv128a)"),
			strings.HasPrefix(short, "verify.newFnv128a"):
			add("verify.memo_key")
		case strings.HasPrefix(short, "sqlexec.Exists"),
			strings.HasPrefix(short, "sqlexec.(*JoinCache).Exists"):
			add("sqlexec.exists")
		case strings.HasPrefix(short, "sqlexec.Execute"),
			strings.HasPrefix(short, "sqlexec.(*JoinCache).Execute"):
			add("sqlexec.execute")
		}
	}
	return keys
}

// analyzeProfile decodes a gzipped pprof CPU profile and reduces it to
// layer and inclusive shares, weighted by sampled CPU time.
func analyzeProfile(data []byte) (*profileShares, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	ps := &profileShares{layer: map[string]float64{}, inclusive: map[string]float64{}}
	var total float64
	for _, s := range p.samples {
		stack := p.stack(s.locs)
		w := float64(s.weight)
		total += w
		ps.samples++
		ps.layer[attribute(stack)] += w
		for _, k := range inclusiveKeys(stack) {
			ps.inclusive[k] += w
		}
	}
	if total > 0 {
		for k := range ps.layer {
			ps.layer[k] /= total
		}
		for k := range ps.inclusive {
			ps.inclusive[k] /= total
		}
	}
	return ps, nil
}

// rawProfile is the subset of profile.proto the attribution reads.
type rawProfile struct {
	strings   []string
	funcs     map[uint64]int64    // function id → name string index
	locs      map[uint64][]uint64 // location id → function ids, leaf first
	samples   []rawSample
	valueSlot int // index of the cpu/nanoseconds value
}

type rawSample struct {
	locs   []uint64
	weight int64
}

func (p *rawProfile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// decodeProfile parses a gzipped profile.proto message.
func decodeProfile(data []byte) (*rawProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &rawProfile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}, valueSlot: -1}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var samples []sample
	var sampleTypes [][2]int64 // (type, unit) string indexes
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, st)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, st := range sampleTypes {
		if int(st[0]) < len(p.strings) && p.strings[st[0]] == "cpu" {
			p.valueSlot = i
		}
	}
	if p.valueSlot < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for _, s := range samples {
		if p.valueSlot < len(s.values) {
			p.samples = append(p.samples, rawSample{locs: s.locs, weight: s.values[p.valueSlot]})
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func eachField(buf []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
