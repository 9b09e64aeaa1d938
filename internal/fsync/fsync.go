// Package fsync holds the directory fsync that makes a file's creation,
// rename or removal durable. The document store's atomic installs and
// epoch collection and the model registry's version commits share it.
package fsync

import "os"

// Dir fsyncs the directory dir, so the entries created, renamed or
// removed in it survive a crash.
func Dir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
