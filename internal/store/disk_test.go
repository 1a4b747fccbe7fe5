package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// TestDiskWriteFailureServesComputedValue: a disk tier that cannot write
// degrades to a correct uncached result. The entry's shard directory
// <dir>/<hash[:2]> is a regular file, so MkdirAll fails (unlike a chmod,
// this holds for root too). Do must still return the computed value and
// count one disk error, and a fresh store over the same directory finds no
// entry and recomputes.
func TestDiskWriteFailureServesComputedValue(t *testing.T) {
	dir := t.TempDir()
	k := NewKey("t").Field("x", 1).Key()
	if err := os.WriteFile(filepath.Join(dir, k.Hash()[:2]), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := diskVal{Name: "uncached", Series: []float64{4, -0.5}}

	reg := telemetry.NewRegistry()
	s1, err := Open(Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Do(s1, k, Options[diskVal]{Persist: true}, func() (diskVal, error) { return want, nil })
	if err != nil {
		t.Fatalf("disk write failure surfaced an error: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Do = %+v, want the computed %+v", got, want)
	}
	if e := counterValue(t, reg, "dcrm_store_disk_errors_total"); e != 1 {
		t.Errorf("disk errors = %v, want 1", e)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	got, err = Do(s2, k, Options[diskVal]{Persist: true}, func() (diskVal, error) {
		recomputed = true
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed || !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh store: recomputed=%v got=%+v, want a recompute of %+v", recomputed, got, want)
	}
}

// sealEntry frames payload the way the disk tier writes an entry: magic,
// payload checksum, payload.
func sealEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append(append([]byte{}, diskMagic...), sum[:]...), payload...)
}

// FuzzDiskEntry throws arbitrary entry files at the disk tier's decoder —
// the trust boundary a torn write, a foreign file or a tampered store
// directory crosses. raw is written as the entry file as is, or, when
// sealed, framed with a valid magic and checksum so the bytes reach the
// gob decoder. Invariants: a load never panics; an entry that does not
// load is a miss that deletes the file and counts once as corrupt; an
// entry that loads stays on disk and counts nothing as corrupt.
func FuzzDiskEntry(f *testing.F) {
	var valid bytes.Buffer
	if err := gob.NewEncoder(&valid).Encode(diskVal{Name: "seed", Series: []float64{1, -2.5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(sealEntry(valid.Bytes()), false)
	f.Add([]byte("not gob"), true)
	f.Fuzz(func(t *testing.T, raw []byte, sealed bool) {
		reg := telemetry.NewRegistry()
		s, err := Open(Config{Dir: t.TempDir(), Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		k := NewKey("fuzz").Key()
		path := s.disk.path(k.Hash())
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if sealed {
			raw = sealEntry(raw)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		_, _, ok := diskLoad[diskVal](s, k)
		corrupt := 0.0
		if sample, found := reg.Snapshot().Get("dcrm_store_disk_corrupt_total"); found {
			corrupt = sample.Value
		}
		_, statErr := os.Stat(path)
		if ok {
			if corrupt != 0 || statErr != nil {
				t.Fatalf("loaded entry: corrupt counter %v, stat %v; want 0 and the file kept", corrupt, statErr)
			}
			return
		}
		if corrupt != 1 || !os.IsNotExist(statErr) {
			t.Fatalf("rejected entry: corrupt counter %v, stat %v; want 1 and the file removed", corrupt, statErr)
		}
	})
}
