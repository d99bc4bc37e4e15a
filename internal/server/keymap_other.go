//go:build !linux

package server

import (
	"fmt"
	"io"
	"os"
)

// mapKey reads the first size bytes of the key file f into memory and
// returns them as a stored key. Elsewhere than Linux, whose mapping flags
// keymap_linux.go relies on, the key is a heap copy, released like a
// mapping so that the two count alike.
func mapKey(f *os.File, size int64) (*StoredKey, error) {
	if size < 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("server: cannot read a %d-byte key file", size)
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), b); err != nil {
		return nil, fmt.Errorf("server: read key file: %w", err)
	}
	return newStoredKey(b, func([]byte) error { return nil }), nil
}
