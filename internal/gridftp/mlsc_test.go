package gridftp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// nestedTree stores a three-level tree with an empty directory in it and
// returns the files a walk of /tree must find.
func nestedTree(t *testing.T, s *site) []WalkEntry {
	t.Helper()
	for _, d := range []string{"/tree", "/tree/a", "/tree/a/deep", "/tree/b", "/tree/empty"} {
		if err := s.storage.Mkdir("alice", d); err != nil {
			t.Fatal(err)
		}
	}
	var want []WalkEntry
	for i, rel := range []string{"top.bin", "a/one.bin", "a/two with spaces.bin", "a/deep/three.bin", "b/four.bin"} {
		s.putFile(t, "/tree/"+rel, pattern(100+i))
		want = append(want, WalkEntry{Rel: rel, Size: int64(100 + i)})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Rel < want[j].Rel })
	return want
}

func sortedWalk(t *testing.T, c *Client, path string) []WalkEntry {
	t.Helper()
	w, err := c.WalkEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Files
	sort.Slice(got, func(i, j int) bool { return got[i].Rel < got[j].Rel })
	return got
}

// TestMlscListsWhatMlsdLists: on a nested tree the control-channel listing
// carries exactly the fact lines MLSD sends over a data channel, directory by
// directory, and a walk built on it finds the same files — with one command
// per directory and no PASV.
func TestMlscListsWhatMlsdLists(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	want := nestedTree(t, s)
	o := obs.Nop()
	proxy := s.connect(t, nw.Host("laptop"), false).cred
	c, err := DialWithOptions(nw.Host("laptop"), s.addr, proxy, s.trust, DialOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/tree", "/tree/a", "/tree/a/deep", "/tree/empty"} {
		overData, err := c.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		overControl, err := c.listControl(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(overControl, overData) && len(overControl)+len(overData) > 0 {
			t.Errorf("%s: MLSC %q, MLSD %q", dir, overControl, overData)
		}
	}
	pasv := commandCount(o, "PASV")
	if got := sortedWalk(t, c, "/tree"); !reflect.DeepEqual(got, want) {
		t.Errorf("walk found %v, want %v", got, want)
	}
	if n := commandCount(o, "MLSC"); n != 4+5 {
		t.Errorf("%d MLSC commands, want 9 (four above, five directories walked)", n)
	}
	if n := commandCount(o, "PASV") - pasv; n != 0 {
		t.Errorf("the walk sent %d PASV, want 0", n)
	}
	if feats, err := c.Features(); err != nil || !strings.Contains(strings.Join(feats, "\n"), "MLSC") {
		t.Errorf("FEAT does not advertise MLSC: %v %v", feats, err)
	}
}

// TestListEntriesKeepsPairWired: listing is no longer one of the things that
// un-wire a third-party pair — after ListEntries on both sessions the next
// file still goes out with no PASV, PORT or connection of its own. List
// (MLSD) still un-wires, as the second half shows.
func TestListEntriesKeepsPairWired(t *testing.T) {
	p := newTPPair(t, tpPairOptions{})
	p.transfer(ThirdPartyOptions{})
	if !wired(p.src, p.dst, false) {
		t.Fatal("pair not wired after a transfer")
	}
	conns := p.interSiteConns(0)
	for _, c := range []*Client{p.src, p.dst} {
		if entries, err := c.ListEntries("/"); err != nil || len(entries) != 1 {
			t.Fatalf("ListEntries: %v %v", entries, err)
		}
	}
	if !wired(p.src, p.dst, false) {
		t.Fatal("ListEntries un-wired the pair")
	}
	p.transfer(ThirdPartyOptions{})
	if pasv, port := commandCount(p.dstObs, "PASV"), commandCount(p.srcObs, "PORT"); pasv != 1 || port != 1 || p.interSiteConns(0) != conns {
		t.Errorf("after ListEntries: %d PASV, %d PORT, %d connections; want 1, 1, %d", pasv, port, p.interSiteConns(0), conns)
	}

	if _, err := p.src.List("/"); err != nil {
		t.Fatal(err)
	}
	if wired(p.src, p.dst, false) {
		t.Fatal("List (MLSD) left the pair wired over flushed pools")
	}
	p.transfer(ThirdPartyOptions{})
}

// withoutMLSC serves one GridFTP-Lite session of s to the returned client
// through a relay that renames MLSC to a verb the server does not have: what
// a server from before MLSC looks like on the wire. (Lite, because its control
// channel is cleartext and can be rewritten; the listing code is the same.)
func withoutMLSC(t *testing.T, s *site, nw *netsim.Network) *Client {
	t.Helper()
	clientEnd, relayClient := net.Pipe()
	relayServer, serverEnd := net.Pipe()
	go s.server.ServeLite(serverEnd, "alice")
	go func() {
		defer relayServer.Close()
		br := bufio.NewReader(relayClient)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "MLSC") {
				line = "XLSC" + line[len("MLSC"):]
			}
			if _, err := io.WriteString(relayServer, line); err != nil {
				return
			}
		}
	}()
	go func() {
		defer relayClient.Close()
		io.Copy(relayClient, relayServer)
	}()
	c, err := DialLite(nw.Host("laptop"), clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestListEntriesFallsBackOnceWithoutMLSC: against a server without the verb
// the first listing — the walk's speculative one, behind its MLST — pays one
// refused MLSC, the session remembers, and every later listing goes straight
// to MLSD — the walk still finds every file.
func TestListEntriesFallsBackOnceWithoutMLSC(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	want := nestedTree(t, s)
	c := withoutMLSC(t, s, nw)
	c.obs = obs.Nop()
	if got := sortedWalk(t, c, "/tree"); !reflect.DeepEqual(got, want) {
		t.Errorf("walk found %v, want %v", got, want)
	}
	if mlsc, mlsd := commandCount(c.obs, "MLSC"), commandCount(c.obs, "MLSD"); mlsc != 1 || mlsd != 5 {
		t.Errorf("%d MLSC and %d MLSD for five directories, want 1 and 5", mlsc, mlsd)
	}
	if !c.noMLSC {
		t.Error("the refusal was not remembered")
	}
}

// TestMlscRefusesListingTooLargeForAReply: a directory whose fact lines
// exceed the reply cap is refused by the server with 504 — nothing of the
// listing is sent — and ListEntries gets it over MLSD instead, through the
// same fallback as a server without the verb but for that directory only.
func TestMlscRefusesListingTooLargeForAReply(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	if err := s.storage.Mkdir("alice", "/big"); err != nil {
		t.Fatal(err)
	}
	// 2100 names of 2000 bytes: a little over the 4 MiB a reply may carry.
	const n = 2100
	long := strings.Repeat("n", 2000)
	for i := 0; i < n; i++ {
		s.putFile(t, fmt.Sprintf("/big/%s-%04d", long, i), nil)
	}
	s.putFile(t, "/small.bin", pattern(10))
	o := obs.Nop()
	c := s.connect(t, nw.Host("laptop"), true)
	c.obs = o

	if err := c.ctrl.Cmd("MLSC", "/big"); err != nil {
		t.Fatal(err)
	}
	if r, err := c.finalReply(nil); err != nil || r.Code != ftp.CodeParamNotImpl || len(r.Lines) != 1 {
		t.Fatalf("MLSC of an over-cap directory: %d (%d lines) %v, want a one-line 504", r.Code, len(r.Lines), err)
	}
	entries, err := c.ListEntries("/big")
	if err != nil || len(entries) != n {
		t.Fatalf("ListEntries fell back to %d entries, %v; want %d", len(entries), err, n)
	}
	if c.noMLSC {
		t.Error("one oversized directory turned MLSC off for the session")
	}
	if entries, err := c.ListEntries("/"); err != nil || len(entries) != 2 {
		t.Fatalf("ListEntries /: %v %v", entries, err)
	}
	if mlsc, mlsd := commandCount(o, "MLSC"), commandCount(o, "MLSD"); mlsc != 2 || mlsd != 1 {
		t.Errorf("%d MLSC and %d MLSD through ListEntries, want 2 and 1", mlsc, mlsd)
	}
	// A walk meets the directory in a level's flight: it alone goes to MLSD,
	// once the flight's replies are in, and nothing of the tree is missed.
	w, err := c.WalkEntries("/")
	if err != nil || len(w.Files) != n+1 || len(w.Dirs) != 1 {
		t.Fatalf("walk of /: %d files, directories %v, %v; want %d files under one directory", len(w.Files), w.Dirs, err, n+1)
	}
	if mlsc, mlsd := commandCount(o, "MLSC"), commandCount(o, "MLSD"); mlsc != 4 || mlsd != 2 {
		t.Errorf("%d MLSC and %d MLSD after the walk, want 4 and 2", mlsc, mlsd)
	}
}
