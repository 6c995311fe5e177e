package diskcache

import (
	"os"
	"syscall"
)

// touch sets f's access and modification times to now through its
// descriptor: utimensat with a nil path acts on the descriptor itself
// (futimens), with no path lookup. Errors are ignored; touching is
// best-effort.
func touch(f *os.File) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		syscall.Syscall6(syscall.SYS_UTIMENSAT, fd, 0, 0, 0, 0, 0)
	})
}
