package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Idle spinners. On a virtual machine an idle vCPU halts, and waking a
// halted vCPU goes through the host's scheduler: measured here, that
// costs more than a whole wd-selective query and varies from second to
// second, so a closed loop of sub-millisecond requests measures the
// hypervisor, not the program (pinned to one vCPU the same workload runs
// twice as fast). During the measured phases the harness therefore keeps
// every vCPU awake with one spinner process per CPU in the SCHED_IDLE
// class: the kernel runs it only when nothing else wants that CPU, and
// preempts it at once when something does.

const spinFlag = "-spin-on-cpu"

// spinMain is the spinner process's body: pin to the CPU, drop to
// SCHED_IDLE, spin until the parent goes away.
func spinMain(cpu int) {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		fmt.Fprintln(os.Stderr, "spinner: sched_setaffinity:", e)
		os.Exit(1)
	}
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintln(os.Stderr, "spinner: sched_setscheduler(SCHED_IDLE):", e)
		os.Exit(1)
	}
	fmt.Println("spinning") // tells the parent both calls succeeded
	for {
		for i := 0; i < 1<<20; i++ {
			spinSink++
		}
		if os.Getppid() == 1 { // orphaned: the harness is gone
			return
		}
	}
}

var spinSink uint64

// spinners is the set of running spinner processes.
type spinners struct{ cmds []*exec.Cmd }

// startSpinners starts one spinner per CPU. It returns an error (and no
// spinners) when the kernel refuses the scheduling class, in which case
// the run goes on without them and says so.
func startSpinners() (*spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &spinners{}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, spinFlag, fmt.Sprint(cpu))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			s.stop()
			return nil, err
		}
		s.cmds = append(s.cmds, cmd)
		line := make([]byte, 16)
		if n, _ := out.Read(line); n == 0 {
			s.stop()
			return nil, fmt.Errorf("spinner for CPU %d did not start", cpu)
		}
	}
	return s, nil
}

// stop kills the spinners and waits for them.
func (s *spinners) stop() {
	for _, c := range s.cmds {
		c.Process.Kill()
		c.Wait()
	}
	s.cmds = nil
}
