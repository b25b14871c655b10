package snap

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Version is the snapshot format version this build reads and writes. See
// the package comment for the bump policy. Version 2 added the kept
// thermal anchors (thermal.State.Anchor*, server.State.AnchorKey): a
// version-1 snapshot decodes them as absent, and resuming without them
// re-anchors where the uninterrupted run reuses, so it is refused.
const Version uint32 = 2

// magic identifies a snapshot file; 8 bytes so the header is a fixed 12.
var magic = [8]byte{'R', 'E', 'P', 'R', 'O', 'S', 'N', 'P'}

const headerLen = len(magic) + 4

// Encode writes the framed snapshot of v to w: header, then gob payload.
func Encode(w io.Writer, v any) error {
	var hdr [headerLen]byte
	copy(hdr[:], magic[:])
	binary.BigEndian.PutUint32(hdr[len(magic):], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snap: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("snap: encode payload: %w", err)
	}
	return nil
}

// Decode reads a framed snapshot from r into v (a pointer). Malformed
// input — truncated or wrong header, wrong version, corrupt or
// type-mismatched gob stream — returns an error; the decoder additionally
// converts any payload-decoding panic into an error, so untrusted bytes
// can never take the process down.
func Decode(r io.Reader, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("snap: malformed snapshot: %v", p)
		}
	}()
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("snap: read header: %w", err)
	}
	if !bytes.Equal(hdr[:len(magic)], magic[:]) {
		return fmt.Errorf("snap: bad magic %q (not a snapshot file)", hdr[:len(magic)])
	}
	if ver := binary.BigEndian.Uint32(hdr[len(magic):]); ver != Version {
		return fmt.Errorf("snap: snapshot version %d, this build reads %d", ver, Version)
	}
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("snap: decode payload: %w", err)
	}
	return nil
}

// EncodeFile atomically writes the snapshot of v to path: the bytes land
// in a temporary file in the same directory, fsynced, then renamed over
// the destination — a crash mid-write leaves the previous checkpoint
// intact, never a torn file.
func EncodeFile(path string, v any) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := Encode(f, v); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("snap: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("snap: close %s: %w", tmp, err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snap: %w", err)
	}
	return nil
}

// DecodeFile reads the snapshot at path into v (a pointer).
func DecodeFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	defer f.Close()
	return Decode(f, v)
}
