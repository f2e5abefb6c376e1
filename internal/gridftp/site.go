package gridftp

import (
	"sort"
	"strings"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/obs"
)

// SITE subcommand registry. SITE is the extension namespace of the FTP
// protocol; instead of a blanket "ignored" reply, subcommands register
// here so SITE HELP can enumerate them and unknown ones fail loudly (500)
// — a client probing for an extension learns immediately whether the
// server has it.

// siteHandler is one registered SITE subcommand.
type siteHandler struct {
	help string // one-line usage shown by SITE HELP
	fn   func(sess *session, params string)
}

var siteRegistry = map[string]siteHandler{}

// registerSite adds a SITE subcommand; name is matched case-insensitively.
func registerSite(name, help string, fn func(*session, string)) {
	siteRegistry[strings.ToUpper(name)] = siteHandler{help: help, fn: fn}
}

func init() {
	registerSite("HELP", "HELP — list SITE subcommands", (*session).handleSiteHelp)
	registerSite("TRACE", "TRACE <traceparent> — join the caller's distributed trace", (*session).handleSiteTrace)
	registerSite("TASK", "TASK <label> — label this session's transfers for stream telemetry", (*session).handleSiteTask)
}

func (sess *session) handleSite(params string) {
	sub, rest, _ := strings.Cut(strings.TrimSpace(params), " ")
	if sub == "" {
		sess.reply(ftp.CodeParamSyntaxError, "SITE requires a subcommand (try SITE HELP)")
		return
	}
	h, ok := siteRegistry[strings.ToUpper(sub)]
	if !ok {
		sess.reply(ftp.CodeSyntaxError, "Unknown SITE subcommand "+sub)
		return
	}
	h.fn(sess, strings.TrimSpace(rest))
}

func (sess *session) handleSiteHelp(string) {
	names := make([]string, 0, len(siteRegistry))
	for name := range siteRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{"SITE subcommands:"}
	for _, name := range names {
		lines = append(lines, " "+siteRegistry[name].help)
	}
	lines = append(lines, "End")
	sess.reply(ftp.CodeOK, lines...)
}

// handleSiteTrace binds the session to the caller's trace: every
// subsequent transfer span roots under the supplied traceparent instead
// of starting a fresh local trace. A malformed argument is rejected with
// 501 and leaves any previously installed context untouched.
func (sess *session) handleSiteTrace(params string) {
	sc, err := obs.Extract(strings.TrimSpace(params))
	if err != nil {
		sess.reply(ftp.CodeParamSyntaxError, "Bad traceparent")
		return
	}
	sess.traceCtx = sc
	sess.log.Debug("trace context installed", "trace", sc.TraceID, "parent", sc.SpanID)
	sess.reply(ftp.CodeOK, "Trace context accepted")
}

// maxTaskLabel bounds SITE TASK labels: the stream registry keeps the label
// of every retained transfer and prints it in the health table, so a
// remote-supplied label must not be unbounded.
const maxTaskLabel = 128

// handleSiteTask installs the session's task label. The stream-telemetry
// plane labels this session's transfers with it, so a transfer
// scheduler can send the same label to both endpoints of a third-party
// transfer and read back one coherent stream health picture. An empty
// label clears it.
func (sess *session) handleSiteTask(params string) {
	label := strings.TrimSpace(params)
	if len(label) > maxTaskLabel || strings.ContainsAny(label, " \t") {
		sess.reply(ftp.CodeParamSyntaxError, "Bad task label")
		return
	}
	sess.task = label
	sess.reply(ftp.CodeOK, "Task label accepted")
}
