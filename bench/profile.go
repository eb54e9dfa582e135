package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU profiler's sampling rate. The default 100 Hz would
// need 20 s of windows for 2000 samples. Linux per-thread timers can
// deliver this rate; the reference VM's timer resolution caps it near
// 250 Hz per thread, so the traced pass takes several windows there.
const profileHz = 1000

// startProfile starts a CPU profile at profileHz. runtime/pprof insists on
// 100 Hz; setting the rate first makes its own call a no-op (the runtime
// says so on stderr once) and the profile runs at the rate set here.
func startProfile(buf *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(buf)
}

// profileLayers are the layers with a cpu.<layer>_share metric.
var profileLayers = []string{
	"sim", "netsim", "tcp", "packet", "core", "dataplane", "obs", "mbox", "app", "stats", "bench", "runtime_bg",
}

// layerOf maps a function's symbol name to the layer it belongs to, or ""
// for the runtime and standard library.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range profileLayers {
			if l == rest {
				return l
			}
		}
		// lab, steering and friends have no share of their own; they are
		// reached only through benchmark set-up code.
		return "bench"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// foldProfile decodes a gzipped pprof CPU profile and charges each sample
// to the innermost repo frame on its stack, so mallocgc, memmove, map and
// container/heap time lands on the layer that asked for it. Stacks with no
// repo frame are background work. It returns samples per layer.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  [][]uint64              // location ids, leaf first
		counts   []int64
	)
	msg := pbuf(raw)
	for len(msg) > 0 {
		num, _, data, err := msg.field()
		if err != nil {
			return nil, 0, err
		}
		switch num {
		case 2: // Sample
			locs, n, err := decodeSample(data)
			if err != nil {
				return nil, 0, err
			}
			samples = append(samples, locs)
			counts = append(counts, n)
		case 4: // Location
			id, fns, err := decodeLocation(data)
			if err != nil {
				return nil, 0, err
			}
			locFuncs[id] = fns
		case 5: // Function
			id, name, err := decodeFunction(data)
			if err != nil {
				return nil, 0, err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := map[string]int64{}
	var total int64
	for i, locs := range samples {
		layer := ""
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, 0, errors.New("profile: string index out of range")
				}
				if layer = layerOf(strs[idx]); layer != "" {
					break stack
				}
			}
		}
		if layer == "" {
			layer = "runtime_bg"
		}
		out[layer] += counts[i]
		total += counts[i]
	}
	return out, total, nil
}

// pbuf is the unread part of a protobuf message.
type pbuf []byte

var errTruncated = errors.New("profile: truncated protobuf")

func (b *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errTruncated
		}
		c := (*b)[0]
		*b = (*b)[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one field: its number, then its value (varint and fixed
// wire types) or its bytes (length-delimited).
func (b *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = b.varint()
	case 1:
		err = b.skip(8)
	case 2:
		var n uint64
		if n, err = b.varint(); err == nil {
			if n > uint64(len(*b)) {
				return 0, 0, nil, errTruncated
			}
			data = (*b)[:n]
			*b = (*b)[n:]
		}
	case 5:
		err = b.skip(4)
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

func (b *pbuf) skip(n int) error {
	if len(*b) < n {
		return errTruncated
	}
	*b = (*b)[n:]
	return nil
}

// repeated appends a repeated integer field's values, packed or not.
func repeated(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf(data)
	for len(p) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeSample returns a sample's location ids (leaf first) and its first
// value, the sample count.
func decodeSample(data []byte) (locs []uint64, count int64, err error) {
	var values []uint64
	msg := pbuf(data)
	for len(msg) > 0 {
		num, val, d, err := msg.field()
		if err != nil {
			return nil, 0, err
		}
		switch num {
		case 1:
			if locs, err = repeated(locs, val, d); err != nil {
				return nil, 0, err
			}
		case 2:
			if values, err = repeated(values, val, d); err != nil {
				return nil, 0, err
			}
		}
	}
	if len(values) == 0 {
		return nil, 0, errors.New("profile: sample without values")
	}
	return locs, int64(values[0]), nil
}

// decodeLocation returns a location's id and the functions at it: several
// when calls were inlined, the innermost first.
func decodeLocation(data []byte) (id uint64, fns []uint64, err error) {
	msg := pbuf(data)
	for len(msg) > 0 {
		num, val, d, err := msg.field()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case 1:
			id = val
		case 4: // Line
			line := pbuf(d)
			for len(line) > 0 {
				n, v, _, err := line.field()
				if err != nil {
					return 0, nil, err
				}
				if n == 1 {
					fns = append(fns, v)
				}
			}
		}
	}
	return id, fns, nil
}

// decodeFunction returns a function's id and the string index of its name.
func decodeFunction(data []byte) (id, name uint64, err error) {
	msg := pbuf(data)
	for len(msg) > 0 {
		num, val, _, err := msg.field()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			id = val
		case 2:
			name = val
		}
	}
	return id, name, nil
}
