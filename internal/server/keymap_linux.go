package server

import (
	"fmt"
	"os"
	"syscall"
)

// mapKey maps the first size bytes of the key file f read-only and
// returns them as a stored key; f may be closed afterwards. The pages are
// populated up front: the caller reads every byte at once (a checksum, a
// key view). The mapping is private: never written, it shares the page
// cache all the same, and the write-back of a page that Put's fsync waits
// for skips private mappings where it would have to visit a shared one.
// Unlinking the file leaves the mapping valid; truncating it under the
// mapping would not, and nothing in the store does.
func mapKey(f *os.File, size int64) (*StoredKey, error) {
	if size == 0 {
		return newStoredKey(nil, nil), nil
	}
	if size < 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("server: cannot map a %d-byte key file", size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("server: map key file: %w", err)
	}
	return newStoredKey(b, syscall.Munmap), nil
}
