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

// cpuBuckets are the CPU-attribution metrics, in report order. Each
// profile sample is charged to one bucket by the function it was
// executing (the innermost inlined frame): the mpic package that owns
// it, map access (including hashing map keys), the garbage collector
// (any frame of a GC worker, assist or sweeper on the stack), system
// calls, or other.
var cpuBuckets = []string{
	"network", "core", "hashing", "meeting", "adversary", "protocol",
	"detrand", "mapaccess", "gc", "syscall", "other",
}

var packageBuckets = map[string]string{
	"mpic/internal/network":   "network",
	"mpic/internal/core":      "core",
	"mpic/internal/hashing":   "hashing",
	"mpic/internal/meeting":   "meeting",
	"mpic/internal/adversary": "adversary",
	"mpic/internal/protocol":  "protocol",
	"mpic/internal/detrand":   "detrand",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain",
}

var mapPrefixes = []string{
	"runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete",
	"runtime.mapiter", "internal/runtime/maps.", "runtime.memhash",
	"runtime.aeshash", "runtime.strhash", "runtime.interhash",
	"runtime.nilinterhash", "runtime.f64hash", "runtime.c64hash",
}

var syscallPrefixes = []string{
	"syscall.", "internal/syscall/", "internal/runtime/syscall.",
	"runtime/internal/syscall.", "runtime.futex", "runtime.usleep",
	"runtime.netpoll", "runtime.write1", "runtime.read", "runtime.nanosleep",
	"runtime.epollwait",
}

func hasAnyPrefix(s string, ps []string) bool {
	for _, p := range ps {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf classifies one sample from its stack, innermost frame first.
func bucketOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case hasAnyPrefix(leaf, mapPrefixes):
		return "mapaccess"
	case hasAnyPrefix(leaf, syscallPrefixes):
		return "syscall"
	}
	if b, ok := packageBuckets[funcPackage(leaf)]; ok {
		return b
	}
	return "other"
}

// funcPackage strips a symbol name such as
// "mpic/internal/core.(*party).send.func1" to its import path.
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// cpuNanos decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and returns the sampled CPU nanoseconds charged to each bucket.
func cpuNanos(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []rawSample
	)
	err = pbFields(pb, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			id, fns, err := decodeLocation(b)
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fid uint64) string {
		if i := funcs[fid]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry (samples, nanoseconds) per stack; charge the
	// nanoseconds.
	totals := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		var stack []string
		for _, lid := range s.locs {
			for _, fid := range locs[lid] {
				stack = append(stack, name(fid))
			}
		}
		totals[bucketOf(stack)] += float64(s.values[1])
	}
	return totals, nil
}

type rawSample struct {
	locs   []uint64
	values []int64
}

func decodeSample(b []byte) (rawSample, error) {
	var s rawSample
	err := pbFields(b, func(f, wire int, v uint64, p []byte) error {
		if f != 1 && f != 2 {
			return nil
		}
		vs := []uint64{v}
		if wire == 2 { // packed
			var err error
			if vs, err = pbVarints(p); err != nil {
				return err
			}
		}
		if f == 1 {
			s.locs = append(s.locs, vs...)
			return nil
		}
		for _, x := range vs {
			s.values = append(s.values, int64(x))
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := pbFields(b, func(f, _ int, v uint64, p []byte) error {
		switch f {
		case 1:
			id = v
		case 4: // Line: function_id is field 1
			return pbFields(p, func(lf, _ int, lv uint64, _ []byte) error {
				if lf == 1 {
					fns = append(fns, lv)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

// pbFields walks one protobuf message, handing each field's number, wire
// type, and varint value or length-delimited bytes to fn.
func pbFields(b []byte, fn func(field, wire int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var p []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, wire, v, p); err != nil {
			return err
		}
	}
	return nil
}

func pbVarints(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}
