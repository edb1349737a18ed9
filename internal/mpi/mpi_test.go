package mpi

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// runSPMD executes body on every rank of a fresh local cluster.
func runSPMD(t *testing.T, p int, body func(c Comm) error) {
	t.Helper()
	comms := NewLocalCluster(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(comms[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestLocalSendRecv(t *testing.T) {
	runSPMD(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		msg, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(msg) != "hello" {
			return fmt.Errorf("got %q", msg)
		}
		return nil
	})
}

func TestLocalFIFOPerChannel(t *testing.T) {
	runSPMD(t, 2, func(c Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			msg, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if msg[0] != byte(i) {
				return fmt.Errorf("out of order: got %d want %d", msg[0], i)
			}
		}
		return nil
	})
}

func TestLocalTagIsolation(t *testing.T) {
	runSPMD(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("a")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("b"))
		}
		// Receive in the opposite order of sending: tags must demultiplex.
		b, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		a, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(a) != "a" || string(b) != "b" {
			return fmt.Errorf("tag demux broken: %q %q", a, b)
		}
		return nil
	})
}

func TestSendErrors(t *testing.T) {
	comms := NewLocalCluster(2)
	if err := comms[0].Send(0, 1, nil); err == nil {
		t.Error("self-send not rejected")
	}
	if err := comms[0].Send(5, 1, nil); err == nil {
		t.Error("out-of-range destination not rejected")
	}
	if _, err := comms[0].Recv(-1, 1); err == nil {
		t.Error("out-of-range source not rejected")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	comms := NewLocalCluster(2)
	done := make(chan error)
	go func() {
		_, err := comms[0].Recv(1, 9)
		done <- err
	}()
	comms[0].Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("Recv after close: %v, want ErrClosed", err)
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		runSPMD(t, p, func(c Comm) error {
			buf := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
			if err := AllReduce(c, buf); err != nil {
				return err
			}
			wantRankSum := int64(p * (p - 1) / 2)
			var wantSq int64
			for r := 0; r < p; r++ {
				wantSq += int64(r * r)
			}
			if buf[0] != wantRankSum || buf[1] != int64(p) || buf[2] != wantSq {
				return fmt.Errorf("AllReduce sum = %v", buf)
			}
			return nil
		})
	}
}

func TestAllReduceSignedValues(t *testing.T) {
	runSPMD(t, 3, func(c Comm) error {
		buf := []int64{int64(-10 * (c.Rank() + 1)), -1 << 40}
		if err := AllReduce(c, buf); err != nil {
			return err
		}
		if buf[0] != -60 || buf[1] != -3<<40 {
			return fmt.Errorf("signed sums = %v, want [-60 %d]", buf, int64(-3<<40))
		}
		return nil
	})
}

// A peer payload of the wrong length fails AllReduce with an error naming
// the peer, on the reduce side (rank 0 receives rank 1's five elements
// into four) and on the broadcast side (rank 1 receives five from rank 0).
func TestAllReduceLengthMismatch(t *testing.T) {
	t.Run("reduce", func(t *testing.T) {
		comms := NewLocalCluster(2)
		done := make(chan error, 1)
		go func() { done <- AllReduce(comms[1], make([]int64, 5)) }()
		err := AllReduce(comms[0], make([]int64, 4))
		if err == nil || !strings.Contains(err.Error(), "from rank 1") {
			t.Fatalf("rank 0: %v, want a length error naming rank 1", err)
		}
		// Rank 1 waits for a broadcast that never comes; closing its comm
		// releases it.
		comms[1].Close()
		if err := <-done; !errors.Is(err, ErrClosed) {
			t.Fatalf("rank 1: %v, want ErrClosed", err)
		}
	})
	t.Run("broadcast", func(t *testing.T) {
		comms := NewLocalCluster(2)
		done := make(chan error, 1)
		go func() { done <- AllReduce(comms[1], make([]int64, 4)) }()
		// Rank 0 plays a peer built with a longer buffer.
		if _, err := comms[0].Recv(1, tagReduce); err != nil {
			t.Fatal(err)
		}
		if err := comms[0].Send(1, tagBcast, encode(make([]int64, 5))); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err == nil || !strings.Contains(err.Error(), "from rank 0") {
			t.Fatalf("rank 1: %v, want a length error naming rank 0", err)
		}
	})
}

func TestGatherBytes(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		runSPMD(t, p, func(c Comm) error {
			payload := []byte(fmt.Sprintf("rank-%d-report", c.Rank()))
			out, err := GatherBytes(c, payload)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				if out != nil {
					return fmt.Errorf("non-root got %v", out)
				}
				return nil
			}
			if len(out) != p {
				return fmt.Errorf("root gathered %d payloads, want %d", len(out), p)
			}
			for r := 0; r < p; r++ {
				want := fmt.Sprintf("rank-%d-report", r)
				if string(out[r]) != want {
					return fmt.Errorf("gathered[%d] = %q, want %q", r, out[r], want)
				}
			}
			return nil
		})
	}
}

func TestSequentialCollectivesDoNotInterfere(t *testing.T) {
	runSPMD(t, 4, func(c Comm) error {
		for round := 0; round < 20; round++ {
			buf := []int64{int64(c.Rank() + round)}
			if err := AllReduce(c, buf); err != nil {
				return err
			}
			want := int64(6 + 4*round) // sum of ranks + p*round
			if buf[0] != want {
				return fmt.Errorf("round %d: %d != %d", round, buf[0], want)
			}
			payload := []byte{byte(c.Rank()), byte(round)}
			out, err := GatherBytes(c, payload)
			if err != nil {
				return err
			}
			for r := range out {
				if out[r][0] != byte(r) || out[r][1] != byte(round) {
					return fmt.Errorf("round %d: gathered[%d] = %v", round, r, out[r])
				}
			}
		}
		return nil
	})
}

func TestAllReduceQuickRandomVectors(t *testing.T) {
	check := func(vals [][4]int32) bool {
		p := len(vals)
		if p == 0 || p > 8 {
			return true
		}
		want := [4]int64{}
		for _, v := range vals {
			for i, x := range v {
				want[i] += int64(x)
			}
		}
		comms := NewLocalCluster(p)
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				buf := make([]int64, 4)
				for i, x := range vals[rank] {
					buf[i] = int64(x)
				}
				if err := AllReduce(comms[rank], buf); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
				for i := range buf {
					if buf[i] != want[i] {
						mu.Lock()
						ok = false
						mu.Unlock()
					}
				}
			}(r)
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// freeAddrs reserves p distinct loopback ports.
func freeAddrs(t *testing.T, p int) []string {
	t.Helper()
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func runTCPCluster(t *testing.T, p int, body func(c Comm) error) {
	t.Helper()
	addrs := freeAddrs(t, p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := DialTCP(TCPConfig{Rank: rank, Addrs: addrs})
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			errs[rank] = body(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCPCluster(t, 3, func(c Comm) error {
		// Ring: send to (rank+1)%3, receive from (rank+2)%3.
		next, prev := (c.Rank()+1)%3, (c.Rank()+2)%3
		if err := c.Send(next, 5, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		msg, err := c.Recv(prev, 5)
		if err != nil {
			return err
		}
		if msg[0] != byte(prev) {
			return fmt.Errorf("got %d from %d", msg[0], prev)
		}
		return nil
	})
}

func TestTCPAllReduce(t *testing.T) {
	runTCPCluster(t, 4, func(c Comm) error {
		buf := []int64{int64(c.Rank()), 100}
		if err := AllReduce(c, buf); err != nil {
			return err
		}
		if buf[0] != 6 || buf[1] != 400 {
			return fmt.Errorf("tcp allreduce = %v", buf)
		}
		return nil
	})
}

func TestTCPLargePayload(t *testing.T) {
	runTCPCluster(t, 2, func(c Comm) error {
		const size = 1 << 20
		if c.Rank() == 0 {
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			return c.Send(1, 8, payload)
		}
		msg, err := c.Recv(0, 8)
		if err != nil {
			return err
		}
		if len(msg) != size {
			return fmt.Errorf("len = %d", len(msg))
		}
		for i := 0; i < size; i += 4099 {
			if msg[i] != byte(i*31) {
				return fmt.Errorf("corruption at %d", i)
			}
		}
		return nil
	})
}

func TestTCPConfigErrors(t *testing.T) {
	if _, err := DialTCP(TCPConfig{Rank: 0, Addrs: nil}); err == nil {
		t.Error("empty addrs accepted")
	}
	if _, err := DialTCP(TCPConfig{Rank: 3, Addrs: []string{"x", "y"}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestNewLocalClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size 0 accepted")
		}
	}()
	NewLocalCluster(0)
}
