package gridftp

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/obs"
)

// The client's reply discipline (settle.go) as an executable model. One int64
// draws a sequence of Client and Pipeline calls and the scripted server's
// verdict on each command it reads: accept, refuse with a 5xx, refuse and hang
// up, or stall past the client's read deadline. The live client runs the
// calls against the scripted server; a reference model works out from the
// same draw which call reports which reply, how many flights the session
// waits out (gridftp.client.flights) and the client's state after each call.
// Every reply names its turn ("#i"), so an error read for the wrong command
// shows as the wrong turn.
//
// A failing seed names itself; replay it with
//
//	go test -run 'TestClientSequences/seed=N$' ./internal/gridftp

// sequenceSeeds is how many seeds, from 1, tier-1 runs.
const sequenceSeeds = 200

func TestClientSequences(t *testing.T) {
	for seed := int64(1); seed <= sequenceSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSequence(t, seed) })
	}
}

// FuzzClientSequence is TestClientSequences over seeds the fuzzer picks.
func FuzzClientSequence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(runSequence)
}

// The calls a sequence is drawn from.
const (
	opParallelism = iota // SetParallelism(arg), arg 0..4
	opBlockSize          // SetBlockSize(arg KiB)
	opSetupTask          // Setup{Task}
	opDelegate           // Delegate
	opPort               // Port
	opMkdirs             // Pipeline.Mkdirs of one directory
	opMode               // SetMode, S or E
	opDCAU               // SetDCAU, N or A
	opProt               // SetProt, C or P
	opNoop               // Noop
	opPassive            // Passive(false)
	opSettle             // Settle
	numOps
	opUser // the login: USER's 230 owed before USER is written, as Dial has it
	opModeE
)

var opNames = [...]string{"SetParallelism", "SetBlockSize", "Setup", "Delegate", "Port", "Mkdirs",
	"SetMode", "SetDCAU", "SetProt", "Noop", "Passive", "Settle", "", "USER", "MODE E"}

type seqCall struct{ op, arg int }

func (c seqCall) String() string { return fmt.Sprintf("%s(%d)", opNames[c.op], c.arg) }

// drawSequence draws the server's verdicts and the calls. One seed in three
// never ends the session early; the rest hang up or stall now and then.
func drawSequence(seed int64) ([]verdict, []seqCall) {
	rng := rand.New(rand.NewSource(seed))
	ending := []int{0, 4, 12}[rng.Intn(3)] // per cent of commands that end the session
	codes := []int{500, 501, 502, 504, 530, 550}
	verdicts := make([]verdict, 40)
	for i := range verdicts {
		switch r := rng.Intn(100); {
		case r < ending/2:
			verdicts[i] = verdict{kind: hangUp, code: codes[rng.Intn(len(codes))]}
		case r < ending:
			verdicts[i] = verdict{kind: stall}
		case r < ending+20:
			verdicts[i] = verdict{kind: refuse, code: codes[rng.Intn(len(codes))]}
		}
	}
	calls := []seqCall{{op: opUser}, {op: opModeE}}
	for n := 3 + rng.Intn(12); n > 0; n-- {
		calls = append(calls, seqCall{op: rng.Intn(numOps), arg: rng.Intn(5)})
	}
	return verdicts, calls
}

func runSequence(t *testing.T, seed int64) {
	before := runtime.NumGoroutine()
	verdicts, calls := drawSequence(seed)
	c, srv := newScriptedSessionOver(t, nil, 0)
	conn := &modelConn{Conn: srv.client, stalled: func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.stalled
	}}
	c.ctrl = ftp.NewConn(conn)
	c.obs = obs.New(io.Discard, slog.LevelError)
	srv.mu.Lock()
	srv.verdicts = verdicts
	srv.mu.Unlock()
	p := NewPipeline(c, c)
	m := &seqModel{verdicts: verdicts, spec: c.spec, refused: map[string]string{}}

	for i, call := range calls {
		got, want := step(c, p, m, call)
		if m.server == serverHungUp {
			m.server = serverClosed
		}
		quiesce(t, conn, srv)
		trace := fmt.Sprintf("seed %d, call %d of %v", seed, i, calls[:i+1])
		if got != want {
			t.Fatalf("%s: the call returned %q, the model %q", trace, got, want)
		}
		if cs, ms := clientState(c, p, srv), m.state(); cs != ms {
			t.Fatalf("%s: the client's state\n\t%+v\nthe model's\n\t%+v", trace, cs, ms)
		}
	}
	c.Close()
	<-srv.done
	if n := leakcheck.AtMost(before); n > before {
		t.Fatalf("seed %d: %d goroutines after the session closed, %d before it opened", seed, n, before)
	}
}

// step makes one call on the client and on the model, and returns what each
// says the call returned: "" for success, "#i" for the reply of turn i,
// "local" for the client's own refusal, "channel" for a failed channel; and a
// returned address after it.
func step(c *Client, p *Pipeline, m *seqModel, call seqCall) (got, want string) {
	switch call.op {
	case opUser:
		c.owed = []sessionCmd{{name: "USER", params: ":globus-mapping:", code: ftp.CodeUserLoggedIn}}
		got = outcome(c.send("USER", ":globus-mapping:"))
		user := &modelCmd{want: ftp.CodeUserLoggedIn}
		m.owed = []*modelCmd{user}
		want = m.send(user)
	case opModeE:
		got = outcome(c.owe(sessionCmd{name: "MODE", params: "E"}))
		want = m.owe(&modelCmd{})
	case opParallelism:
		n := call.arg
		got = outcome(c.SetParallelism(n))
		switch {
		case n == m.spec.Parallelism:
		case n < 1:
			want = "local"
		default:
			m.passive = ""
			want = m.owe(&modelCmd{apply: func(bool) { m.spec.Parallelism = n }})
		}
	case opBlockSize:
		n := 64 << 10 << (call.arg % 3)
		got = outcome(c.SetBlockSize(n))
		if n != m.spec.BlockSize {
			want = m.owe(&modelCmd{optional: true, apply: func(accepted bool) {
				if accepted {
					m.spec.BlockSize = n
				}
			}})
		}
	case opSetupTask:
		task := fmt.Sprint("task-", call.arg)
		got = outcome(c.Setup(SessionSetup{Task: task}))
		want = m.owe(&modelCmd{optional: true, apply: func(bool) { m.task = task }})
	case opDelegate:
		got = outcome(c.Delegate(time.Hour))
		m.passive = ""
		want = m.owe(&modelCmd{})
	case opPort:
		got = outcome(c.Port([]string{"fake:5000"}))
		m.passive = ""
		want = m.owe(&modelCmd{})
	case opMkdirs:
		dir := fmt.Sprint("/d", call.arg)
		_, err := p.Mkdirs([]string{dir})
		got = outcome(err)
		want = m.owe(&modelCmd{want: ftp.CodePathCreated, refused: func(turn string) { m.refused[dir] = turn }})
	case opMode:
		mode := []TransferMode{ModeStream, ModeExtended}[call.arg%2]
		got = outcome(c.SetMode(mode))
		want = m.batch(&modelCmd{apply: func(bool) {
			m.spec.Mode = mode
			m.passive = ""
		}})
	case opDCAU:
		dcau := []DCAUMode{DCAUNone, DCAUSelf}[call.arg%2]
		got = outcome(c.SetDCAU(dcau))
		want = m.batch(&modelCmd{apply: func(bool) {
			m.spec.DCAU = dcau
			if dcau == DCAUNone {
				m.spec.Prot = ProtClear
			}
			m.passive = ""
		}})
	case opProt:
		prot := []ProtLevel{ProtClear, ProtPrivate}[call.arg%2]
		got = outcome(c.SetProt(prot))
		want = m.batch(&modelCmd{}, &modelCmd{apply: func(bool) { m.spec.Prot = prot; m.passive = "" }})
	case opNoop:
		got = outcome(c.Noop())
		_, want = m.exchange(ftp.CodeOK)
	case opPassive:
		addrs, err := c.Passive(false)
		got = outcome(err) + " " + strings.Join(addrs, " ")
		if m.passive == "" {
			var turn int
			if turn, want = m.exchange(ftp.CodeEnteringPassive); want == "" {
				m.passive = fmt.Sprintf("pasv#%d", turn)
			}
		}
		addr := ""
		if want == "" {
			addr = m.passive
		}
		want += " " + addr
	case opSettle:
		got = outcome(c.Settle())
		_, want = m.settle()
	}
	return got, want
}

// outcome is how step names what a call returned.
func outcome(err error) string {
	var re *ftp.ReplyError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &re):
		text := re.Reply.String()
		if i := strings.LastIndexByte(text, '#'); i >= 0 {
			return text[i:]
		}
		return "local"
	}
	return "channel"
}

// seqState is what the model and the client are compared on after each call.
type seqState struct {
	Spec          ChannelSpec
	Task, Passive string
	Owed          int
	Flights       int64
	Answered      int
	Refused       string // the directories Mkdirs was refused, with their turns
}

func clientState(c *Client, p *Pipeline, srv *scriptedServer) seqState {
	var refused []string
	for dir, err := range p.refused {
		refused = append(refused, dir+"="+outcome(err))
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return seqState{
		Spec: c.spec, Task: c.task, Passive: strings.Join(c.passiveAddrs, " "), Owed: len(c.owed),
		Flights:  c.obs.Registry().Counter("gridftp.client.flights").Value(),
		Answered: srv.answered, Refused: sortedJoin(refused),
	}
}

func sortedJoin(s []string) string {
	sort.Strings(s)
	return strings.Join(s, " ")
}

// The scripted server as the model sees it.
const (
	serverUp      = iota
	serverHungUp  // hung up in this call, which still writes to it: its FIN is read, not its close
	serverClosed  // hung up in an earlier call: every write fails
	serverStalled // reads every command and answers none
)

// seqModel is the reference model of settle.go's rules:
//   - a command left owed is read, in order, by the next call that reads;
//   - its apply runs only on its own success (or an optional command's
//     decline);
//   - a refusal its refused hook takes is not an error;
//   - the first other refusal is what the reading call returns, even when the
//     channel fails behind it;
//   - a write that fails reads what is owed and returns that refusal.
type seqModel struct {
	verdicts []verdict
	next     int // the turn of the next command the server reads
	server   int
	owed     []*modelCmd
	written  bool // a write since the last read
	flights  int64
	broken   bool // a read failed: every later read fails too

	spec    ChannelSpec
	task    string
	passive string
	refused map[string]string
}

type modelCmd struct {
	want     int // zero: 200
	optional bool
	apply    func(accepted bool)
	refused  func(turn string)
	turn     int // -1: the server never answers it
}

func (m *seqModel) state() seqState {
	var refused []string
	for dir, turn := range m.refused {
		refused = append(refused, dir+"="+turn)
	}
	return seqState{Spec: m.spec, Task: m.task, Passive: m.passive, Owed: len(m.owed),
		Flights: m.flights, Answered: m.next, Refused: sortedJoin(refused)}
}

// send writes cmd: it reaches the server unless the server hung up in an
// earlier call, and then what is owed is read and its refusal returned.
func (m *seqModel) send(cmd *modelCmd) string {
	m.written = true
	if m.server == serverClosed {
		_, err := m.settle()
		return cmp.Or(err, "channel")
	}
	cmd.turn = -1
	if m.server == serverUp {
		cmd.turn = m.next
		m.next++
		switch m.verdict(cmd.turn).kind {
		case hangUp:
			m.server = serverHungUp
		case stall:
			m.server, cmd.turn = serverStalled, -1
		}
	}
	return ""
}

func (m *seqModel) verdict(turn int) verdict {
	if turn < len(m.verdicts) {
		return m.verdicts[turn]
	}
	return verdict{}
}

// read is the reply a read finds for cmd; ok is false when the channel fails
// instead.
func (m *seqModel) read(cmd *modelCmd) (code int, ok bool) {
	if m.written {
		m.written = false
		m.flights++
	}
	if m.broken || cmd.turn < 0 {
		m.broken = true
		return 0, false
	}
	if v := m.verdict(cmd.turn); v.kind != accept {
		return v.code, true
	}
	return cmd.want, true
}

func turnName(turn int) string { return fmt.Sprintf("#%d", turn) }

func (m *seqModel) owe(cmds ...*modelCmd) string {
	for _, cmd := range cmds {
		cmd.want = cmp.Or(cmd.want, ftp.CodeOK)
		if err := m.send(cmd); err != "" {
			return err
		}
		m.owed = append(m.owed, cmd)
	}
	return ""
}

func (m *seqModel) settle() (inStep bool, err string) {
	owed := m.owed
	m.owed = nil
	for _, cmd := range owed {
		code, ok := m.read(cmd)
		if !ok {
			return false, cmp.Or(err, "channel")
		}
		declined := code != cmd.want && cmd.optional && (code == 500 || code == 502 || code == 504)
		switch {
		case code == cmd.want || declined:
			if cmd.apply != nil {
				cmd.apply(code == cmd.want)
			}
		case cmd.refused != nil:
			cmd.refused(turnName(cmd.turn))
		case err == "":
			err = turnName(cmd.turn)
		}
	}
	return true, err
}

func (m *seqModel) batch(cmds ...*modelCmd) string {
	if err := m.owe(cmds...); err != "" {
		return err
	}
	_, err := m.settle()
	return err
}

// exchange is a command whose reply its caller waits for; it returns the
// command's turn.
func (m *seqModel) exchange(want int) (turn int, err string) {
	cmd := &modelCmd{want: want}
	if err := m.send(cmd); err != "" {
		return -1, err
	}
	inStep, owedErr := m.settle()
	if !inStep {
		return -1, owedErr
	}
	code, ok := m.read(cmd)
	switch {
	case owedErr != "":
		return -1, owedErr
	case !ok:
		return -1, "channel"
	case code != want:
		return -1, turnName(cmd.turn)
	}
	return cmd.turn, ""
}

// quiesce waits until the server has answered every command the client
// wrote, or has hung up or stalled, so the next call starts from a settled
// server.
func quiesce(t *testing.T, conn *modelConn, srv *scriptedServer) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		srv.mu.Lock()
		done := srv.over || int64(srv.answered) >= conn.writes.Load()
		srv.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the server did not answer what the client wrote")
		}
	}
}

// modelConn is the client's end of the control channel under the model: it
// counts the commands written, and once the server has stalled, a read that
// finds nothing fails with a timeout, as a read deadline would.
type modelConn struct {
	net.Conn
	stalled func() bool
	writes  atomic.Int64
}

func (mc *modelConn) Write(p []byte) (int, error) {
	n, err := mc.Conn.Write(p)
	if err == nil {
		mc.writes.Add(1)
	}
	return n, err
}

func (mc *modelConn) Read(p []byte) (int, error) {
	for {
		// The server wrote every reply it will send before it stalled, and
		// each arrives within microseconds: a read begun after the stall
		// that finds nothing in 2 ms finds nothing ever.
		stalled := mc.stalled()
		mc.Conn.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
		n, err := mc.Conn.Read(p)
		if n > 0 || stalled || !errors.Is(err, os.ErrDeadlineExceeded) {
			return n, err
		}
	}
}
