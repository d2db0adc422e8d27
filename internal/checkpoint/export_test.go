package checkpoint

import "io"

// Write is WriteFS over the OS file system.
func Write(path string, version uint32, encode func(io.Writer) error) error {
	return WriteFS(OS{}, path, version, encode)
}
