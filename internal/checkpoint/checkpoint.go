// Package checkpoint provides crash-safe snapshot files for every
// persistence surface in the system (embedding caches, model
// parameters, trainer state). A snapshot is a small versioned envelope
//
//	magic   uint32 = 0x4B434754 ("TGCK" on disk, little-endian)
//	version uint32              payload format version (caller-defined)
//	length  uint64              payload byte count
//	payload [length]byte
//	crc32   uint32              IEEE CRC32 over header + payload
//
// written atomically: encode to path.tmp, fsync the file, rename over
// path, then fsync the directory so the rename itself is durable. A
// crash at any point leaves either the previous snapshot or the new
// one on disk — never a torn file. Readers validate the magic, length,
// and checksum before a single payload byte reaches the decoder, so
// torn or bit-flipped files surface as a clean ErrCorrupt instead of a
// half-applied load.
//
// The file-system surface is injectable (FS) so tests can drive the
// writer through internal/faultfs and prove the atomicity contract
// under short writes, ENOSPC-style errors, and failed renames.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint envelope ("TGCK" little-endian).
const Magic uint32 = 0x4B434754

const (
	headerSize  = 16 // magic + version + length
	trailerSize = 4  // crc32
)

var (
	// ErrCorrupt reports an envelope that fails validation: truncated
	// header, payload length mismatch, or checksum mismatch. The
	// on-disk file was torn or bit-flipped; the payload was not
	// decoded and no state was applied.
	ErrCorrupt = errors.New("corrupt checkpoint")
	// ErrNotCheckpoint reports a file that does not start with the
	// envelope magic; no reader parses bytes the checksum does not cover.
	ErrNotCheckpoint = errors.New("not a checkpoint file")
)

// File is the writable-file surface the atomic writer needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the file-system operations of the atomic write path so
// tests can inject faults (see internal/faultfs) and every read a
// recovery performs goes through the same injectable surface as the
// writes. OS is the real one.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs the directory so a completed rename survives a
	// power loss.
	SyncDir(dir string) error
	// MkdirAll creates the directory files are published into (shard
	// snapshots, swap params).
	MkdirAll(dir string, perm os.FileMode) error
}

// OS is the real file system.
type OS struct{}

func (OS) Create(name string) (File, error)            { return os.Create(name) }
func (OS) Open(name string) (io.ReadCloser, error)     { return os.Open(name) }
func (OS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                    { return os.Remove(name) }
func (OS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Encode renders a complete envelope to memory: the payload produced
// by encode, framed by the header and trailing checksum.
func Encode(version uint32, encode func(io.Writer) error) ([]byte, error) {
	var payload bytes.Buffer
	if err := encode(&payload); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding payload: %w", err)
	}
	buf := make([]byte, headerSize+payload.Len()+trailerSize)
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], uint64(payload.Len()))
	copy(buf[headerSize:], payload.Bytes())
	end := headerSize + payload.Len()
	binary.LittleEndian.PutUint32(buf[end:], crc32.ChecksumIEEE(buf[:end]))
	return buf, nil
}

// Decode validates an in-memory envelope and hands the payload to
// decode. The checksum is verified first: decode never sees a byte of
// a corrupt payload.
func Decode(data []byte, decode func(version uint32, r io.Reader) error) error {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != Magic {
		return fmt.Errorf("%w (no envelope magic)", ErrNotCheckpoint)
	}
	if len(data) < headerSize+trailerSize {
		return fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	version := binary.LittleEndian.Uint32(data[4:])
	length := binary.LittleEndian.Uint64(data[8:])
	if got := uint64(len(data) - headerSize - trailerSize); got != length {
		return fmt.Errorf("%w: payload is %d bytes, envelope says %d", ErrCorrupt, got, length)
	}
	end := headerSize + int(length)
	want := binary.LittleEndian.Uint32(data[end:])
	if got := crc32.ChecksumIEEE(data[:end]); got != want {
		return fmt.Errorf("%w: CRC32 %08x, envelope says %08x", ErrCorrupt, got, want)
	}
	if err := decode(version, bytes.NewReader(data[headerSize:end])); err != nil {
		return fmt.Errorf("checkpoint payload: %w", err)
	}
	return nil
}

// WriteFS atomically replaces path on fsys with a new snapshot. The
// payload is fully encoded in memory first, so a failing encoder never
// touches the disk; then the envelope goes through the
// tmp+fsync+rename+fsync sequence. On any error the previous snapshot
// at path is untouched.
func WriteFS(fsys FS, path string, version uint32, encode func(io.Writer) error) error {
	data, err := Encode(version, encode)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: publishing %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		// The rename already happened; the snapshot is visible but its
		// durability across power loss is not guaranteed. Report it.
		return fmt.Errorf("checkpoint: syncing directory of %s: %w", path, err)
	}
	return nil
}

// Read opens path, validates the envelope, and hands the payload to
// decode. A missing file returns the bare *os.PathError (so callers
// can errors.Is(err, fs.ErrNotExist)); a pre-envelope file returns
// ErrNotCheckpoint; a torn or bit-flipped file returns ErrCorrupt.
func Read(path string, decode func(version uint32, r io.Reader) error) error {
	return ReadFS(OS{}, path, decode)
}

// ReadFS is Read over an injectable file system.
func ReadFS(fsys FS, path string, decode func(version uint32, r io.Reader) error) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	data, rerr := io.ReadAll(f)
	cerr := f.Close()
	if rerr != nil {
		return fmt.Errorf("checkpoint: reading %s: %w", path, rerr)
	}
	if cerr != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", path, cerr)
	}
	return Decode(data, decode)
}
