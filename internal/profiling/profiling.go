// Package profiling wires the standard -cpuprofile/-memprofile flags into
// the CLIs. Both commands expose the same two flags with the same
// semantics as `go test`: -cpuprofile samples the whole run, -memprofile
// writes one heap snapshot (after a forced GC) at exit. The profiles are
// pprof-format; inspect them with `go tool pprof <binary> <file>`.
package profiling

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the output paths of the two standard pprof profiles. Zero
// values disable the corresponding profile.
type Flags struct {
	CPU string
	Mem string
}

// Register installs -cpuprofile and -memprofile on fs and returns the
// struct fs.Parse will fill.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// Start begins CPU profiling when requested and returns a stop function
// that finalizes both profiles. Call after flag.Parse; defer the stop (or
// call it right before exiting on the success path — profiles are not
// written when the process bails out through os.Exit).
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPU != "" {
		cpuFile, err = os.Create(f.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if f.Mem != "" {
			mf, err := os.Create(f.Mem)
			if err != nil {
				return err
			}
			// One GC first so the snapshot shows live objects, not garbage
			// awaiting collection.
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Close()
				return err
			}
			return mf.Close()
		}
		return nil
	}, nil
}
