package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
)

// diskMagic versions the on-disk entry format. Bump it when the layout
// changes: old files then read as corrupt and are silently recomputed.
var diskMagic = []byte("dcrmsto1")

const diskHeaderLen = 8 + sha256.Size

// diskTier persists encoded entries under dir, fanned out by hash prefix
// so no single directory grows unbounded. Every file is
//
//	magic[8] | sha256(payload)[32] | payload
//
// written to a temp file and atomically renamed into place, so readers
// never observe a partial entry and concurrent writers of the same key
// settle on one complete file.
type diskTier struct {
	dir string
}

func newDiskTier(dir string) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk tier: %w", err)
	}
	return &diskTier{dir: dir}, nil
}

func (d *diskTier) path(hash string) string {
	return filepath.Join(d.dir, hash[:2], hash+".bin")
}

// read returns the payload for hash, or ok=false on a miss. Corrupt
// entries — truncated files, checksum mismatches, a foreign magic — are
// deleted and reported as a miss with corrupt=true: the store treats the
// key as absent and recomputes, so a torn disk never fails a run.
func (d *diskTier) read(hash string) (payload []byte, ok, corrupt bool) {
	raw, err := os.ReadFile(d.path(hash))
	if err != nil {
		return nil, false, false
	}
	if len(raw) < diskHeaderLen || !bytes.Equal(raw[:8], diskMagic) {
		d.drop(hash)
		return nil, false, true
	}
	payload = raw[diskHeaderLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(raw[8:diskHeaderLen], sum[:]) {
		d.drop(hash)
		return nil, false, true
	}
	return payload, true, false
}

// drop deletes a corrupt entry, so it is read at most once.
func (d *diskTier) drop(hash string) {
	os.Remove(d.path(hash))
}

// write persists payload for hash atomically: temp file in the final
// directory, fsync-free rename. A failure leaves at most a stray temp
// file, never a readable-but-wrong entry.
func (d *diskTier) write(hash string, payload []byte) error {
	dir := filepath.Dir(d.path(hash))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	_, err = f.Write(diskMagic)
	if err == nil {
		_, err = f.Write(sum[:])
	}
	if err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), d.path(hash)); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}
