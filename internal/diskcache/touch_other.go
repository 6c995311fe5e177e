//go:build !linux

package diskcache

import (
	"os"
	"time"
)

// touch sets f's access and modification times to now, by its path.
// Errors are ignored; touching is best-effort.
func touch(f *os.File) {
	now := time.Now()
	os.Chtimes(f.Name(), now, now)
}
