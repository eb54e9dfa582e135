package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const wireFixturePkg = "repro/fixture/internal/wiredemo"

// wireClean is the baseline codec pair every mutation test below is a
// one-line edit of: a 7-byte message {u16be A, u32be B, u8 C} with a
// covering length guard on the decode side.
const wireClean = `
package wiredemo

import (
	"encoding/binary"
	"errors"
)

type msg struct {
	A uint16
	B uint32
	C byte
}

func encodeMsg(m *msg) []byte {
	b := make([]byte, 0, 7)
	b = binary.BigEndian.AppendUint16(b, m.A)
	b = binary.BigEndian.AppendUint32(b, m.B)
	b = append(b, m.C)
	return b
}

func decodeMsg(b []byte) (*msg, error) {
	if len(b) < 7 {
		return nil, errors.New("short")
	}
	m := &msg{
		A: binary.BigEndian.Uint16(b),
		B: binary.BigEndian.Uint32(b[2:]),
		C: b[6],
	}
	return m, nil
}
`

func TestWiresafePassesCleanPair(t *testing.T) {
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", wireClean)
	wantFindings(t, got, "wiresafe")
}

func TestWiresafeCatchesOffsetSkew(t *testing.T) {
	// Decoder reads B one byte late: encoder writes [2:6], decoder reads
	// [3:7]. Both sides are flagged as misaligned.
	src := strings.Replace(wireClean,
		"B: binary.BigEndian.Uint32(b[2:]),",
		"B: binary.BigEndian.Uint32(b[3:]),", 1)
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", src)
	wantFindings(t, got, "wiresafe",
		"at [2:6] but decodeMsg reads overlapping bytes at a different offset",
		"at [3:7] but encodeMsg writes overlapping bytes at a different offset")
}

func TestWiresafeCatchesWidthMismatch(t *testing.T) {
	// Decoder reads A as 4 bytes where the encoder wrote 2.
	src := strings.Replace(wireClean,
		"A: binary.BigEndian.Uint16(b),",
		"A: uint16(binary.BigEndian.Uint32(b)),", 1)
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", src)
	wantFindings(t, got, "wiresafe", "width mismatch at offset 0")
}

func TestWiresafeCatchesEndiannessMismatch(t *testing.T) {
	src := strings.Replace(wireClean,
		"A: binary.BigEndian.Uint16(b),",
		"A: binary.LittleEndian.Uint16(b),", 1)
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", src)
	wantFindings(t, got, "wiresafe", "endianness mismatch at offset 0")
}

func TestWiresafeCatchesFieldNeverRead(t *testing.T) {
	// Decoder skips the middle field entirely: bytes [2:6] are written
	// but never read.
	src := strings.Replace(wireClean,
		"B: binary.BigEndian.Uint32(b[2:]),\n", "", 1)
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", src)
	wantFindings(t, got, "wiresafe",
		"writes B at [2:6] but decodeMsg never reads those bytes")
}

func TestWiresafeCatchesSizeMismatch(t *testing.T) {
	// Decoder reads one byte past the encoded message (with a matching
	// guard, so the extra read is provably safe — the sizes still
	// disagree).
	src := strings.Replace(wireClean, "if len(b) < 7 {", "if len(b) < 8 {", 1)
	src = strings.Replace(src, "return m, nil",
		"d := b[7]\n\t_ = d\n\treturn m, nil", 1)
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", src)
	wantFindings(t, got, "wiresafe",
		"encoded size is 7 bytes but the decoder's layout covers 8")
}

func TestWiresafeCatchesWeakenedGuard(t *testing.T) {
	// Guard checks 6 bytes but the decoder reads b[6]: truncated input
	// panics at runtime, and the prover refuses the access statically.
	src := strings.Replace(wireClean, "if len(b) < 7 {", "if len(b) < 6 {", 1)
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", src)
	wantFindings(t, got, "wiresafe", "need len(b) >= 7")
}

func TestWiresafeCatchesUnguardedDecoder(t *testing.T) {
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", `
package wiredemo

func parseThing(b []byte) byte {
	return b[0]
}
`)
	wantFindings(t, got, "wiresafe", "need len(b) >= 1")
}

func TestWiresafeIgnoreDirectiveSuppresses(t *testing.T) {
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", `
package wiredemo

func parseThing(b []byte) byte {
	//lint:ignore wiresafe caller validates the frame before dispatch
	return b[0]
}
`)
	wantFindings(t, got, "wiresafe")
}

// wireList is a consume-from-front repetition decoder: count byte, then n
// 4-byte records, each access guarded inside the loop.
const wireList = `
package wiredemo

import (
	"encoding/binary"
	"errors"
)

func decodeList(b []byte) ([]uint32, error) {
	if len(b) < 1 {
		return nil, errors.New("short")
	}
	n := int(b[0])
	rest := b[1:]
	var out []uint32
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, errors.New("truncated record")
		}
		out = append(out, binary.BigEndian.Uint32(rest))
		rest = rest[4:]
	}
	return out, nil
}
`

func TestWiresafeProvesGuardedLoop(t *testing.T) {
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", wireList)
	wantFindings(t, got, "wiresafe")
}

func TestWiresafeCatchesUnguardedLoop(t *testing.T) {
	src := strings.Replace(wireList,
		"\t\tif len(rest) < 4 {\n\t\t\treturn nil, errors.New(\"truncated record\")\n\t\t}\n", "", 1)
	got := checkFixture(t, WiresafeAnalyzer, wireFixturePkg, "wire.go", src)
	wantFindings(t, got, "wiresafe",
		"4-byte read",
		"need len(rest) >= 4")
}

// TestWireLayoutGolden pins the extracted layout tables of every codec
// family in the wire-facing packages. A diff means a field moved, changed
// width, or a codec was added; regenerate with
// `go test ./internal/lint -run WireLayoutGolden -update` only after
// checking the new layout against the protocol constants in
// internal/packet and internal/core.
func TestWireLayoutGolden(t *testing.T) {
	l := getLoader(t)
	var pkgs []*Package
	for _, dir := range []string{"internal/packet", "internal/core"} {
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, dir))
		if err != nil {
			t.Fatalf("LoadDir %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	got := WireReport(pkgs)
	for _, fam := range []string{
		"family core.ctrlmsg",
		"family core.synpayload",
		"family core.tuple",
		"family packet.packet",
	} {
		if !strings.Contains(got, fam) {
			t.Errorf("wire report lost %q:\n%s", fam, got)
		}
	}
	golden := filepath.Join("testdata", "wire_layout.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("wire layout diverges from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestWiresafeModuleClean proves the real wire-facing packages carry no
// layout disagreements and that every decoder access is guard-dominated.
func TestWiresafeModuleClean(t *testing.T) {
	l := getLoader(t)
	var pkgs []*Package
	for _, dir := range []string{"internal/packet", "internal/core"} {
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, dir))
		if err != nil {
			t.Fatalf("LoadDir %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	if got := Run(pkgs, []*Analyzer{WiresafeAnalyzer}); len(got) != 0 {
		t.Errorf("wiresafe findings on the real tree:\n%v", got)
	}
}
