package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Blobs is the engine's value-separated heap for large values: a flat
// directory of whole files, one "<key><ext>" per value, published by atomic
// rename — the classic key/value-separation move (store big values out of
// the LSM proper and keep the tree small). Unlike DB it is multi-writer by
// design — there is no lock, no WAL, no manifest and no index: the
// directory is the only state, so a missing file is the miss. Every Put
// writes a unique temp file and renames it into place, so concurrent
// writers from any number of processes can share one directory and a
// reader always sees a whole blob or none, including one another process
// published a moment ago. The store's artifact namespace (multi-MB
// annotation and trace blobs written by coordinators, CLIs and fleet
// workers at once) rides on it.
type Blobs struct {
	dir, ext string
}

// OpenBlobs opens (creating if needed) a blob heap rooted at dir whose
// files carry the extension ext.
func OpenBlobs(dir, ext string) (*Blobs, error) {
	if dir == "" {
		return nil, errors.New("lsm: blobs: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: blobs: %w", err)
	}
	return &Blobs{dir: dir, ext: ext}, nil
}

func (b *Blobs) path(key string) string { return filepath.Join(b.dir, key+b.ext) }

// Get returns the blob stored under key; a missing blob reports
// os.ErrNotExist.
func (b *Blobs) Get(key string) ([]byte, error) {
	raw, err := os.ReadFile(b.path(key))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("lsm: blobs: %w", err)
	}
	return raw, nil
}

// Put stores blob under key atomically. The temp file name is unique per
// write: the directory is shared between processes without locking, and
// two writers of the same key colliding on one temp path could rename a
// truncated file into place.
func (b *Blobs) Put(key string, blob []byte) error {
	tmp, err := os.CreateTemp(b.dir, key+b.ext+".tmp-*")
	if err != nil {
		return fmt.Errorf("lsm: blobs: %w", err)
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), b.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lsm: blobs: %w", err)
	}
	return nil
}

// Remove deletes the blob under key; removing a missing blob is not an
// error (another sharer may have removed it first).
func (b *Blobs) Remove(key string) error {
	err := os.Remove(b.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("lsm: blobs: %w", err)
	}
	return nil
}

// Count lists the directory and returns the number of published blobs;
// in-flight temp files of live writers do not end in ext.
func (b *Blobs) Count() (int, error) {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return 0, fmt.Errorf("lsm: blobs: %w", err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), b.ext) {
			n++
		}
	}
	return n, nil
}
