package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// machineRecord describes where a result was measured: CPU model, CPU
// count, GOMAXPROCS, Go version, the commit (or, in a checkout without
// git metadata, a digest of the Go sources), the filesystem under the
// event log's directory, and the link between generator, broker and
// receivers.
func machineRecord(logDir string) []string {
	return []string{
		"machine.cpu: " + cpuModel(),
		fmt.Sprintf("machine.nproc: %d", runtime.NumCPU()),
		fmt.Sprintf("machine.gomaxprocs: %d", runtime.GOMAXPROCS(0)),
		"machine.go: " + runtime.Version(),
		"machine.commit: " + commit(),
		"machine.log_fs: " + fsType(logDir),
		"machine.link: loopback",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reports the VCS revision the binary was built from, else the
// git HEAD of the working directory, else a digest of every .go file
// under it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(b))
			}
		}
		return ref
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "none (no git metadata); go sources sha256 " + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x01021997: "9p", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
