package op2_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"op2hpx/op2"
)

// encodeCkpt renders a checkpoint to bytes, failing the test on error.
func encodeCkpt(t testing.TB, cp *op2.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := cp.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// decayCkpt runs the decay program cut steps and snapshots it.
func decayCkpt(t testing.TB, cut int) *op2.Checkpoint {
	t.Helper()
	rt := op2.MustNew()
	defer rt.Close()
	step, _ := newDecay(t, rt)
	for i := 0; i < cut; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := rt.Checkpoint(cut)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCheckpointFileRoundTrip: encode → decode → continue the run on a
// fresh runtime; the continuation must match the uninterrupted reference
// bit for bit, and re-encoding the decoded checkpoint must reproduce the
// exact bytes (the format is canonical: sorted sections, fixed layout).
func TestCheckpointFileRoundTrip(t *testing.T) {
	const total, cut = 9, 4

	refRT := op2.MustNew()
	refStep, refBits := newDecay(t, refRT)
	for i := 0; i < total; i++ {
		if err := refStep(); err != nil {
			t.Fatal(err)
		}
	}
	refRes, refQ := refBits()
	refRT.Close() //nolint:errcheck

	raw := encodeCkpt(t, decayCkpt(t, cut))
	cp, err := op2.ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if cp.Step != cut {
		t.Fatalf("decoded step = %d, want %d", cp.Step, cut)
	}
	if again := encodeCkpt(t, cp); !bytes.Equal(again, raw) {
		t.Fatal("decode→encode is not byte-identical")
	}

	rt := op2.MustNew()
	defer rt.Close()
	step, bits := newDecay(t, rt)
	if err := rt.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < total; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	gotRes, gotQ := bits()
	if gotRes != refRes {
		t.Fatalf("residual bits %#x != reference %#x", gotRes, refRes)
	}
	for i := range gotQ {
		if gotQ[i] != refQ[i] {
			t.Fatalf("q[%d] bits differ after a file round trip", i)
		}
	}
}

// damagedCkpts derives from a valid encoding raw one file per damage
// mode the loader must refuse, except truncation, which callers apply at
// the offsets they choose.
func damagedCkpts(raw []byte) map[string][]byte {
	flip := func(i int) []byte {
		b := append([]byte(nil), raw...)
		b[i] ^= 0x40
		return b
	}
	// An absurd dat count (offset 20: after magic, version, step) must be
	// rejected by the plausibility bound before it can drive allocation.
	huge := append([]byte(nil), raw...)
	huge[20], huge[21], huge[22], huge[23] = 0xff, 0xff, 0xff, 0xff
	return map[string][]byte{
		"bad magic":                 flip(0),
		"unknown version":           flip(8),
		"flipped content byte":      flip(len(raw) / 2),
		"flipped checksum byte":     flip(len(raw) - 1),
		"implausible section count": huge,
		"trailing byte":             append(append([]byte(nil), raw...), 0),
	}
}

// mustCorrupt asserts the loader refuses b typed, without a checkpoint.
func mustCorrupt(t testing.TB, label string, b []byte) {
	t.Helper()
	cp, err := op2.ReadCheckpoint(bytes.NewReader(b))
	if !errors.Is(err, op2.ErrCheckpointCorrupt) {
		t.Fatalf("%s: err = %v, want ErrCheckpointCorrupt", label, err)
	}
	if cp != nil {
		t.Fatalf("%s: loader returned a checkpoint alongside the error", label)
	}
}

// TestCheckpointLoaderRejectsDamage: every way a checkpoint file can be
// damaged — truncation at EVERY byte offset, a flipped content byte, a
// flipped checksum byte, wrong magic, an unknown version, an implausible
// length claim, bytes after the trailer — yields a typed
// ErrCheckpointCorrupt, never a decoded checkpoint and never a panic.
func TestCheckpointLoaderRejectsDamage(t *testing.T) {
	raw := encodeCkpt(t, decayCkpt(t, 3))
	for cut := 0; cut < len(raw); cut++ {
		mustCorrupt(t, "truncated", raw[:cut])
	}
	for label, b := range damagedCkpts(raw) {
		mustCorrupt(t, label, b)
	}
}

// ckptHeader encodes the start of a checkpoint file: magic, version,
// step, a section count of one and one dat named name claiming n values.
func ckptHeader(name string, n uint64) []byte {
	b := []byte("OP2CKPT\n")
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	return binary.LittleEndian.AppendUint64(b, n)
}

// TestCheckpointClaimDoesNotAllocate: a header claiming 1<<24 values
// (128 MiB) followed by EOF is refused after allocating for the data
// actually present, not for the claim.
func TestCheckpointClaimDoesNotAllocate(t *testing.T) {
	b := ckptHeader("q", 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustCorrupt(t, "claim then EOF", b)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("loader allocated %d bytes for a file of %d bytes", grew, len(b))
	}
}

// TestCheckpointRejectsUnsortedNames: WriteTo emits sections in strictly
// ascending name order, so a file with names out of order or repeated
// (even with a valid checksum) is not one it wrote.
func TestCheckpointRejectsUnsortedNames(t *testing.T) {
	body := ckptHeader("b", 0)
	body[20] = 2 // two dats
	body = binary.LittleEndian.AppendUint32(body, 1)
	body = append(body, 'a')
	body = binary.LittleEndian.AppendUint64(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 0) // no globals
	file := binary.LittleEndian.AppendUint64(body, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
	mustCorrupt(t, "names out of order", file)
}

// FuzzReadCheckpoint feeds the loader arbitrary bytes: each input is
// either refused typed, with no checkpoint, or decodes to a checkpoint
// whose encoding is the input byte for byte. The seeds are a valid file,
// its truncations and every damage mode of the loader's table test.
func FuzzReadCheckpoint(f *testing.F) {
	raw := encodeCkpt(f, decayCkpt(f, 3))
	f.Add(raw)
	for _, cut := range []int{0, 8, 12, 20, 24, 30, len(raw) / 2, len(raw) - 8, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	for _, b := range damagedCkpts(raw) {
		f.Add(b)
	}
	f.Add(ckptHeader("q", 1<<24))
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := op2.ReadCheckpoint(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, op2.ErrCheckpointCorrupt) {
				t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
			}
			if cp != nil {
				t.Fatal("loader returned a checkpoint alongside the error")
			}
			return
		}
		if again := encodeCkpt(t, cp); !bytes.Equal(again, b) {
			t.Fatalf("decoded input of %d bytes re-encodes to %d different bytes", len(b), len(again))
		}
	})
}

// TestDirCheckpointsStore: the file-per-job store round-trips, reports
// absence as (nil, nil), refuses damaged files typed, and keeps hostile
// job names inside its directory.
func TestDirCheckpointsStore(t *testing.T) {
	dir := t.TempDir()
	store, err := op2.NewDirCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}

	cp := decayCkpt(t, 5)
	if err := store.Save("jobA", cp); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load("jobA")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Step != 5 {
		t.Fatalf("Load = %+v, want step 5", got)
	}
	if !bytes.Equal(encodeCkpt(t, got), encodeCkpt(t, cp)) {
		t.Fatal("store round trip changed the checkpoint")
	}

	if got, err := store.Load("never-saved"); err != nil || got != nil {
		t.Fatalf("Load(absent) = %v, %v; want nil, nil", got, err)
	}

	// A traversal-shaped name must land inside dir, not climb out of it.
	evil := "../../etc/passwd"
	if err := store.Save(evil, cp); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("store dir holds %d files, want 2 (the evil name escaped?)", len(entries))
	}
	if got, err := store.Load(evil); err != nil || got == nil {
		t.Fatalf("Load(evil) = %v, %v", got, err)
	}

	// Damage the file on disk: the next Load must fail typed, and a
	// Submit preloading it must surface the same sentinel.
	path := filepath.Join(dir, "jobA.ckpt")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("jobA"); !errors.Is(err, op2.ErrCheckpointCorrupt) {
		t.Fatalf("Load(truncated file) = %v, want ErrCheckpointCorrupt", err)
	}

	sv := op2.NewService(op2.ServiceConfig{})
	defer sv.Close() //nolint:errcheck
	_, err = sv.Submit(t.Context(), op2.JobSpec{
		Name:  "jobA",
		Iters: 1,
		Setup: func(rt *op2.Runtime) (*op2.Step, error) {
			t.Error("Setup ran despite a corrupt checkpoint")
			return nil, nil
		},
		CheckpointStore: store,
	})
	if !errors.Is(err, op2.ErrCheckpointCorrupt) {
		t.Fatalf("Submit over a corrupt checkpoint = %v, want ErrCheckpointCorrupt", err)
	}
}
