package journal

import (
	"fmt"
	"os"
	"path/filepath"
)

// FileStore persists the journal as one file per cell in a directory —
// the backend for agents that genuinely restart (examples, operational
// tooling) rather than failing over to an in-process standby. Writes go
// through a temp file + rename (the file system's double buffer), so a
// reader never observes a torn record even if the writer dies mid-write.
type FileStore struct {
	store
	dir directory
}

// directory is the medium: files[c] under the path.
type directory string

var files = [numCells]string{"checkpoint.rec", "intent.rec", "heartbeat"}

// legacyFiles are the record files of the JSON journal this format
// replaced.
var legacyFiles = [...]string{"checkpoint.json", "intent.json"}

// NewFileStore opens (creating if needed) a journal directory. A
// directory written by the JSON journal is refused: its records are not
// this format's, and ignoring them would read as "no checkpoint".
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, name := range legacyFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("journal: %s holds %s, written by the JSON journal; the record format is now binary (%s) and cannot read it — recover with the build that wrote it, or start from an empty directory", dir, name, files[cellCheckpoint])
		}
	}
	fs := &FileStore{dir: directory(dir)}
	fs.m = fs.dir
	return fs, nil
}

// Dir returns the journal directory.
func (fs *FileStore) Dir() string { return string(fs.dir) }

// put writes b to the cell's file via temp file + rename.
func (d directory) put(c cell, b []byte) error {
	tmp, err := os.CreateTemp(string(d), files[c]+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(string(d), files[c])); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// get returns the cell's file content, nil if absent.
func (d directory) get(c cell) ([]byte, error) {
	buf, err := os.ReadFile(filepath.Join(string(d), files[c]))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return buf, nil
}

// del removes the cell's file.
func (d directory) del(c cell) error {
	err := os.Remove(filepath.Join(string(d), files[c]))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

var _ Store = (*FileStore)(nil)
