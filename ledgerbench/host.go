package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/hash"
	"repro/internal/obs"
)

// readHost describes the host and build every result was measured on:
// CPU, core counts, Go version, the checkpoint directory's filesystem,
// the kernel table and its cutovers (calibrated at process start, so they
// can differ between runs), and whether metrics are compiled in.
func readHost(dir string) string {
	cut := hash.KernelCutovers()
	fams := make([]string, 0, len(cut))
	for f := range cut {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	var cutovers []string
	for _, f := range fams {
		cutovers = append(cutovers, fmt.Sprintf("%s=%d", f, cut[f]))
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s fs=%s kernel=%s cutovers=%s cutover_source=%s obs=%v",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir),
		hash.KernelName(), strings.Join(cutovers, ","), hash.KernelCutoverSource(), obs.Enabled)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
		0x01021997: "9p", 0x6A656A63: "virtiofs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", st.Type)
}
