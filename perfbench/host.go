package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo is printed with every result, so a figure always names the
// machine, toolchain, commit, filesystem and server configuration it
// was measured on.
type hostInfo struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu_model"`
	Go         string            `json:"go_version"`
	Commit     string            `json:"commit"`
	DiskFS     string            `json:"disk_tier_fs"`
	DiskDir    string            `json:"disk_tier_dir"`
	Server     map[string]string `json:"server_config"`
}

func describeHost(diskDir string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		DiskFS:     filesystem(diskDir),
		DiskDir:    diskDir,
		Server: map[string]string{
			"Delta":                       "true",
			"DeltaEntries":                strconv.Itoa(deltaEntries),
			"Options.Cache":               fmt.Sprintf("cover.NewBoundedCache(%d)", memEntries),
			"Options.DiskCache":           fmt.Sprintf("diskcache.Open(dir, %d MiB)", diskMaxBytes>>20),
			"Options.Parallelism":         "0 (GOMAXPROCS workers)",
			"QueueLimit":                  "0 (4x workers)",
			"Timeout":                     "0 (30s)",
			"per-request compile options": "aviv.DefaultOptions, Parallelism 1, Verify off",
		},
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

// commit is the VCS revision the go command stamped into the binary; a
// checkout without version-control metadata has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown (no VCS metadata in the checkout)"
	case dirty:
		return rev + " (modified)"
	}
	return rev
}

// filesystem names the filesystem type of dir from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("statfs type %#x", st.Type)
}
