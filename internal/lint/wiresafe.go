package lint

import (
	"fmt"
	"path"
	"sort"
	"strings"
)

// The wiresafe rule proves that each encoder/decoder pair agrees on the
// wire format and that decoders cannot panic on truncated or malformed
// input. Codecs are discovered by naming convention (wirelayout.go), each
// side's layout table is extracted symbolically, the concrete fixed
// prefixes are compared offset by offset, and every decoder byte access
// is proven dominated by a covering length guard (wirebounds.go).
//
// Soundness boundary, by construction: offsets inside conditional or
// repeated groups and past the first variable-width element are extracted
// for the -wire dump but not compared — loops and optional fields don't
// have a single static offset. The proof is over what is provable;
// everything else is pinned by the dynamic round-trip/truncation/fuzz
// harness in the codec packages' tests.

// WiresafeAnalyzer verifies encoder/decoder layout agreement and
// truncation safety for the module's wire codecs.
var WiresafeAnalyzer = &Analyzer{
	Name: "wiresafe",
	Doc:  "wire codecs: encoder/decoder layout agreement and guarded (panic-free) decoding",
	Run:  runWiresafe,
}

func runWiresafe(pkg *Package) []Finding {
	x := newWireXtract(pkg)
	if len(x.fns) == 0 {
		return nil
	}
	var out []Finding
	for _, fam := range wireFamilies(x) {
		if fam.Enc != nil && fam.Dec != nil {
			out = append(out, compareWirePair(x, fam)...)
		}
	}
	for _, fn := range x.fns {
		if fn.Side == sideDec {
			out = append(out, wireBoundsCheck(x, fn)...)
		}
	}
	return out
}

// wireFamily is one codec pair sharing a name suffix within a package.
type wireFamily struct {
	Suffix   string
	Enc, Dec *wireFn
}

func wireFamilies(x *wireXtract) []*wireFamily {
	byName := make(map[string]*wireFamily)
	var order []string
	for _, fn := range x.fns {
		fam, ok := byName[fn.Suffix]
		if !ok {
			fam = &wireFamily{Suffix: fn.Suffix}
			byName[fn.Suffix] = fam
			order = append(order, fn.Suffix)
		}
		if fn.Side == sideEnc {
			if fam.Enc == nil {
				fam.Enc = fn
			}
		} else if fam.Dec == nil {
			fam.Dec = fn
		}
	}
	sort.Strings(order)
	out := make([]*wireFamily, 0, len(order))
	for _, s := range order {
		out = append(out, byName[s])
	}
	return out
}

// famLabel names a family for messages and the report: the shared name
// suffix, or the receiver type for bare Serialize/Parse pairs.
func famLabel(fam *wireFamily) string {
	if fam.Suffix != "" {
		return fam.Suffix
	}
	for _, fn := range []*wireFn{fam.Enc, fam.Dec} {
		if fn == nil {
			continue
		}
		if n := recvNamed(fn.Obj); n != nil {
			return strings.ToLower(n.Obj().Name())
		}
	}
	return "message"
}

// decCoveredEnd is the decoder-side comparable region: decoder offsets
// are absolute (resolved through the constant environment), so every
// concrete top-level entry participates regardless of groups recorded in
// between.
func decCoveredEnd(t *wireTable) int {
	end := 0
	for i := range t.Entries {
		e := &t.Entries[i]
		if e.Kind == entryGroup || e.Off < 0 || e.Width <= 0 || e.Rel {
			continue
		}
		if e.Off+e.Width > end {
			end = e.Off + e.Width
		}
	}
	return end
}

// concreteAt indexes a table's comparable entries by offset, preferring
// named over exempt entries on collision.
func concreteAt(t *wireTable, region int, decoder bool) map[int]*wireEntry {
	out := make(map[int]*wireEntry)
	for i := range t.Entries {
		e := &t.Entries[i]
		if e.Kind == entryGroup || e.Off < 0 || e.Width <= 0 || e.Rel {
			if !decoder {
				// Encoder entries are cursor-ordered: past the first
				// unknown, offsets are unknowable.
				if e.Kind == entryGroup || e.Off < 0 || e.Width < 0 {
					break
				}
			}
			continue
		}
		if e.Off+e.Width > region {
			continue
		}
		if cur, ok := out[e.Off]; ok && !cur.exempt() {
			continue
		}
		out[e.Off] = e
	}
	return out
}

// covers reports whether any comparable entry of the table overlaps
// [lo,hi).
func covers(at map[int]*wireEntry, lo, hi int) bool {
	for _, e := range at {
		if e.Off < hi && e.Off+e.Width > lo {
			return true
		}
	}
	return false
}

func endian(be bool) string {
	if be {
		return "big-endian"
	}
	return "little-endian"
}

func entryDesc(e *wireEntry) string {
	name := e.Name
	if name == "" {
		if e.Kind == entrySub {
			name = "nested " + e.Sub
		} else {
			name = "field"
		}
	}
	return name
}

// compareWirePair checks encoder/decoder layout agreement over the shared
// concrete prefix.
func compareWirePair(x *wireXtract, fam *wireFamily) []Finding {
	et, dt := x.table(fam.Enc), x.table(fam.Dec)
	if et == nil || dt == nil || len(et.Entries) == 0 || len(dt.Entries) == 0 {
		return nil
	}
	label := famLabel(fam)
	encName := fam.Enc.Decl.Name.Name
	decName := fam.Dec.Decl.Name.Name
	var out []Finding

	region := et.wirePrefixEnd()
	if d := decCoveredEnd(dt); d < region {
		region = d
	}
	encAt := concreteAt(et, region, false)
	decAt := concreteAt(dt, region, true)

	offs := make(map[int]bool)
	for o := range encAt {
		offs[o] = true
	}
	for o := range decAt {
		offs[o] = true
	}
	sorted := make([]int, 0, len(offs))
	for o := range offs {
		sorted = append(sorted, o)
	}
	sort.Ints(sorted)

	for _, o := range sorted {
		ee, de := encAt[o], decAt[o]
		switch {
		case ee != nil && de != nil:
			if ee.Kind != de.Kind {
				out = append(out, Finding{Rule: "wiresafe", Pos: de.Pos, Msg: fmt.Sprintf(
					"%s codec: offset %d is %s on the encoder side (%s) but %s on the decoder side (%s)",
					label, o, kindWord(ee), encName, kindWord(de), decName)})
				continue
			}
			if ee.Kind == entrySub && ee.Sub != de.Sub {
				out = append(out, Finding{Rule: "wiresafe", Pos: de.Pos, Msg: fmt.Sprintf(
					"%s codec: offset %d encodes nested %q but decodes nested %q", label, o, ee.Sub, de.Sub)})
				continue
			}
			if ee.Width != de.Width {
				out = append(out, Finding{Rule: "wiresafe", Pos: de.Pos, Msg: fmt.Sprintf(
					"%s codec: width mismatch at offset %d: %s writes %s as %d bytes, %s reads %s as %d bytes",
					label, o, encName, entryDesc(ee), ee.Width, decName, entryDesc(de), de.Width)})
				continue
			}
			if ee.Width > 1 && ee.Kind == entryField && ee.BE != de.BE {
				out = append(out, Finding{Rule: "wiresafe", Pos: de.Pos, Msg: fmt.Sprintf(
					"%s codec: endianness mismatch at offset %d: %s writes %s %s, %s reads it %s",
					label, o, encName, entryDesc(ee), endian(ee.BE), decName, endian(de.BE))})
			}
		case ee != nil:
			if ee.exempt() {
				continue
			}
			if covers(decAt, ee.Off, ee.Off+ee.Width) {
				out = append(out, Finding{Rule: "wiresafe", Pos: ee.Pos, Msg: fmt.Sprintf(
					"%s codec: %s writes %s at [%d:%d] but %s reads overlapping bytes at a different offset (misaligned layout)",
					label, encName, entryDesc(ee), ee.Off, ee.Off+ee.Width, decName)})
				continue
			}
			out = append(out, Finding{Rule: "wiresafe", Pos: ee.Pos, Msg: fmt.Sprintf(
				"%s codec: %s writes %s at [%d:%d] but %s never reads those bytes",
				label, encName, entryDesc(ee), ee.Off, ee.Off+ee.Width, decName)})
		case de != nil:
			if de.exempt() {
				continue
			}
			if covers(encAt, de.Off, de.Off+de.Width) {
				out = append(out, Finding{Rule: "wiresafe", Pos: de.Pos, Msg: fmt.Sprintf(
					"%s codec: %s reads %s at [%d:%d] but %s writes overlapping bytes at a different offset (misaligned layout)",
					label, decName, entryDesc(de), de.Off, de.Off+de.Width, encName)})
				continue
			}
			out = append(out, Finding{Rule: "wiresafe", Pos: de.Pos, Msg: fmt.Sprintf(
				"%s codec: %s reads %s at [%d:%d] but %s never writes those bytes",
				label, decName, entryDesc(de), de.Off, de.Off+de.Width, encName)})
		}
	}

	if et.FixedWidth >= 0 && dt.FixedWidth >= 0 && et.FixedWidth != dt.FixedWidth {
		out = append(out, Finding{Rule: "wiresafe", Pos: dt.Entries[0].Pos, Msg: fmt.Sprintf(
			"%s codec: encoded size is %d bytes but the decoder's layout covers %d",
			label, et.FixedWidth, dt.FixedWidth)})
	}
	return out
}

func kindWord(e *wireEntry) string {
	if e.Kind == entrySub {
		return "a nested codec"
	}
	return "a field"
}

// ---------- the -wire layout dump ----------

// WireReport renders every discovered codec family's layout table — the
// artifact `dyscolint -wire` prints and testdata/wire_layout.golden pins.
func WireReport(pkgs []*Package) string {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].PkgPath < sorted[j].PkgPath })
	var b strings.Builder
	for _, pkg := range sorted {
		x := newWireXtract(pkg)
		if len(x.fns) == 0 {
			continue
		}
		for _, fam := range wireFamilies(x) {
			fmt.Fprintf(&b, "family %s.%s\n", path.Base(pkg.PkgPath), famLabel(fam))
			for _, fn := range []*wireFn{fam.Enc, fam.Dec} {
				if fn == nil {
					continue
				}
				t := x.table(fn)
				fmt.Fprintf(&b, "  %s %s", fn.Side, funcKey(fn.Obj))
				if t != nil {
					if t.FixedWidth >= 0 {
						fmt.Fprintf(&b, "  (%d bytes, fixed)", t.FixedWidth)
					}
					if t.HasOffParam {
						fmt.Fprintf(&b, "  (offset-relative)")
					}
				}
				b.WriteString("\n")
				if t != nil {
					writeWireEntries(&b, t.Entries, "    ", false)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func writeWireEntries(b *strings.Builder, entries []wireEntry, indent string, rel bool) {
	for i := range entries {
		e := &entries[i]
		if e.Kind == entryGroup {
			fmt.Fprintf(b, "%s%s %s:\n", indent, e.GKind, e.Label)
			writeWireEntries(b, e.Kids, indent+"  ", true)
			continue
		}
		fmt.Fprintf(b, "%s%-10s %-8s %s\n", indent, offCol(e, rel), typCol(e), nameCol(e))
	}
}

func offCol(e *wireEntry, rel bool) string {
	plus := ""
	if rel || e.Rel {
		plus = "+"
	}
	switch {
	case e.Off >= 0 && e.Width > 0:
		return fmt.Sprintf("[%s%d:%s%d]", plus, e.Off, plus, e.Off+e.Width)
	case e.Off >= 0:
		return fmt.Sprintf("[%s%d:]", plus, e.Off)
	default:
		return "[?]"
	}
}

func typCol(e *wireEntry) string {
	if e.Kind == entrySub {
		if e.Width >= 0 {
			return fmt.Sprintf("sub(%dB)", e.Width)
		}
		return "sub(?B)"
	}
	switch {
	case e.Width < 0:
		return "var"
	case e.Width == 1:
		return "u8"
	default:
		end := "le"
		if e.BE {
			end = "be"
		}
		return fmt.Sprintf("u%d%s", e.Width*8, end)
	}
}

func nameCol(e *wireEntry) string {
	name := e.Name
	if e.Kind == entrySub {
		if name != "" {
			name = fmt.Sprintf("%s <%s>", e.Sub, name)
		} else {
			name = "<" + e.Sub + ">"
		}
	}
	if name == "" {
		name = "_"
	}
	if e.Tag {
		name += "  (tag)"
	}
	return name
}
