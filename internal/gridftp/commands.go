package gridftp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
)

// featureList is what FEAT advertises; the presence of DCSC here is how
// clients discover the paper's extension (§V).
var featureList = []string{
	"AUTH TLS",
	"MODE E",
	"PARALLEL",
	"SPAS",
	"SPOR",
	"DCAU",
	"DCSC P,D",
	"PERF",
	"PBSZ",
	"PROT",
	"REST STREAM RANGES",
	"MLST size*;modify*;type*",
	"MLSD",
	"MLSC",
	"SIZE",
	"CKSM MD5,SHA256,ADLER32",
	"TRANSPORT TCP,UDT",
	"MARKERS",
	"TRACE",
}

// dispatch executes one command; it returns true when the session should
// end.
func (sess *session) dispatch(cmd ftp.Command) bool {
	if sess.liteRefusal(cmd) {
		return false
	}
	// Commands allowed before authentication.
	switch cmd.Name {
	case "AUTH":
		return sess.handleAuth(cmd.Params)
	case "FEAT":
		lines := append([]string{"Features:"}, featureList...)
		sess.reply(ftp.CodeFeatures, append(lines, "End")...)
		return false
	case "QUIT":
		sess.reply(221, "Goodbye")
		return true
	case "NOOP":
		sess.reply(ftp.CodeOK, "NOOP ok")
		return false
	}
	if !sess.authenticated {
		sess.reply(ftp.CodeNotLoggedIn, "Authenticate first (AUTH TLS)")
		return false
	}
	switch cmd.Name {
	case "USER", "PASS":
		sess.reply(ftp.CodeUserLoggedIn, "Logged in as local user "+sess.localUser)
	case "DELG":
		sess.handleDelegation(cmd.Params)
	case "PWD":
		sess.reply(ftp.CodePathCreated, fmt.Sprintf("%q is the current directory", sess.cwd))
	case "CWD":
		sess.handleCWD(cmd.Params)
	case "TYPE":
		switch strings.ToUpper(cmd.Params) {
		case "I", "A", "L 8":
			sess.reply(ftp.CodeOK, "Type set")
		default:
			sess.reply(ftp.CodeParamNotImpl, "Unsupported type")
		}
	case "MODE":
		sess.handleMode(cmd.Params)
	case "OPTS":
		sess.handleOpts(cmd.Params)
	case "PBSZ":
		if _, err := strconv.Atoi(cmd.Params); err != nil {
			sess.reply(ftp.CodeParamSyntaxError, "Bad buffer size")
		} else {
			sess.reply(ftp.CodeOK, "PBSZ=0")
		}
	case "PROT":
		sess.handleProt(cmd.Params)
	case "DCAU":
		sess.handleDCAU(cmd.Params)
	case "DCSC":
		sess.handleDCSC(cmd.Params)
	case "PASV":
		sess.handlePassive(false)
	case "SPAS":
		sess.handlePassive(true)
	case "PORT":
		sess.handlePort(cmd.Params, false)
	case "SPOR":
		sess.handlePort(cmd.Params, true)
	case "REST":
		sess.handleRest(cmd.Params)
	case "ALLO":
		sess.handleAllo(cmd.Params)
	case "RETR":
		sess.handleRetr(cmd.Params)
	case "STOR":
		sess.handleStor(cmd.Params)
	case "SIZE":
		sess.handleSize(cmd.Params)
	case "CKSM":
		sess.handleCksm(cmd.Params)
	case "MLST":
		sess.handleMlst(cmd.Params)
	case "MLSD":
		sess.handleMlsd(cmd.Params)
	case "MLSC":
		sess.handleMlsc(cmd.Params)
	case "MKD":
		sess.handleMkd(cmd.Params)
	case "DELE", "RMD":
		sess.handleDele(cmd.Params)
	case "RNFR":
		sess.handleRnfr(cmd.Params)
	case "RNTO":
		sess.handleRnto(cmd.Params)
	case "ABOR":
		sess.reply(ftp.CodeClosingData, "No transfer in progress")
	case "SITE":
		sess.handleSite(cmd.Params)
	default:
		sess.reply(ftp.CodeNotImplemented, fmt.Sprintf("Command %s not implemented", cmd.Name))
	}
	return false
}

// resolve joins a possibly relative path against the session CWD.
func (sess *session) resolve(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = sess.cwd + "/" + p
	}
	return dsi.CleanPath(p)
}

func (sess *session) handleCWD(params string) {
	p := sess.resolve(params)
	fi, err := sess.srv.cfg.Storage.Stat(sess.localUser, p)
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	if !fi.IsDir {
		sess.reply(ftp.CodeFileUnavailable, "Not a directory")
		return
	}
	sess.cwd = p
	sess.reply(ftp.CodeFileActionOK, "CWD ok")
}

func (sess *session) handleMode(params string) {
	switch strings.ToUpper(params) {
	case "S":
		sess.setMode(ModeStream)
	case "E":
		sess.setMode(ModeExtended)
	default:
		sess.reply(ftp.CodeParamNotImpl, "Unsupported mode")
	}
}

// setMode normalizes the spec as the client's SetMode does, so both ends
// keep the same parallelism: a MODE S transfer opens one channel, and a
// return to MODE E runs the streams OPTS last set.
func (sess *session) setMode(m TransferMode) {
	sess.spec.Mode = m
	sess.spec = sess.spec.Normalize()
	sess.data.flush()
	sess.reply(ftp.CodeOK, fmt.Sprintf("Mode %c ok", m))
}

// handleAllo records the size announced for the next STOR ("ALLO n",
// RFC 959) so the storage layer can preallocate the destination file
// instead of grow-copying it block by block.
func (sess *session) handleAllo(params string) {
	fields := strings.Fields(params)
	if len(fields) == 0 {
		sess.reply(ftp.CodeParamSyntaxError, "ALLO requires a size")
		return
	}
	n, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || n < 0 {
		sess.reply(ftp.CodeParamSyntaxError, "Bad ALLO size")
		return
	}
	sess.alloHint = n
	sess.reply(ftp.CodeOK, "ALLO ok")
}

// handleOpts parses Globus-style "OPTS RETR Parallelism=n,n,n;" plus our
// "OPTS RETR BlockSize=n;" extension.
func (sess *session) handleOpts(params string) {
	verb, rest, _ := strings.Cut(params, " ")
	if !strings.EqualFold(verb, "RETR") && !strings.EqualFold(verb, "STOR") {
		sess.reply(ftp.CodeParamNotImpl, "OPTS target not supported")
		return
	}
	for _, kv := range strings.Split(strings.TrimSuffix(strings.TrimSpace(rest), ";"), ";") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "parallelism":
			// Globus sends "min,pref,max"; we honor the preferred value.
			parts := strings.Split(val, ",")
			idx := 0
			if len(parts) >= 2 {
				idx = 1
			}
			n, err := strconv.Atoi(strings.TrimSpace(parts[idx]))
			if err != nil || n < 1 || n > maxParallelism {
				sess.reply(ftp.CodeParamSyntaxError, "Bad parallelism")
				return
			}
			if n != sess.spec.Parallelism {
				sess.spec.Parallelism = n
				sess.data.flush()
			}
		case "blocksize":
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil || n < minBlockSize || n > maxBlockSize {
				sess.reply(ftp.CodeParamSyntaxError, "Bad block size")
				return
			}
			sess.spec.BlockSize = n
		case "transport":
			switch strings.ToUpper(strings.TrimSpace(val)) {
			case "TCP":
				sess.spec.Transport = netsim.TransportTCP
			case "UDT":
				sess.spec.Transport = netsim.TransportUDT
			default:
				sess.reply(ftp.CodeParamNotImpl, "Unknown transport "+val)
				return
			}
			sess.data.flush()
		case "markers":
			d, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil || d < 0 {
				sess.reply(ftp.CodeParamSyntaxError, "Bad marker interval (ms)")
				return
			}
			sess.spec.MarkerInterval = msDuration(d)
		default:
			sess.reply(ftp.CodeParamNotImpl, "Unknown OPTS key "+key)
			return
		}
	}
	sess.reply(ftp.CodeOK, "Options set")
}

func (sess *session) handleProt(params string) {
	switch strings.ToUpper(params) {
	case "C":
		sess.spec.Prot = ProtClear
	case "S":
		sess.spec.Prot = ProtSafe
	case "P":
		sess.spec.Prot = ProtPrivate
	default:
		sess.reply(ftp.CodeParamNotImpl, "PROT level not supported")
		return
	}
	sess.data.flush()
	sess.reply(ftp.CodeOK, "Protection level set")
}

func (sess *session) handleDCAU(params string) {
	switch strings.ToUpper(params) {
	case "N":
		sess.spec.DCAU = DCAUNone
		sess.spec.Prot = ProtClear
	case "A":
		sess.spec.DCAU = DCAUSelf
	case "S":
		sess.spec.DCAU = DCAUSubject
	default:
		sess.reply(ftp.CodeParamNotImpl, "DCAU mode not supported")
		return
	}
	sess.data.flush()
	sess.reply(ftp.CodeOK, "DCAU set")
}

// handleDCSC implements the paper's Data Channel Security Context command
// (§V): "DCSC P <base64 blob>" installs a replacement credential/trust for
// the data channel; "DCSC D" reverts to the login context.
func (sess *session) handleDCSC(params string) {
	ctype, blob, _ := strings.Cut(params, " ")
	switch strings.ToUpper(ctype) {
	case "D":
		sess.dcsc = nil
		sess.data.flush()
		sess.reply(ftp.CodeOK, "Data channel security context reset to default")
	case "P":
		if !printableASCII(blob) || blob == "" {
			sess.reply(ftp.CodeParamSyntaxError, "DCSC blob must be printable ASCII")
			return
		}
		ctx, err := DecodeDCSCBlob(blob, sess.srv.cfg.Trust)
		if err != nil {
			sess.reply(ftp.CodeParamSyntaxError, errText(err))
			return
		}
		ctx.ExpectIdentity = ctx.Cred.Identity()
		sess.dcsc = ctx // a DCSC P command overwrites any previous request
		sess.data.flush()
		sess.reply(ftp.CodeOK, "Data channel security context installed")
	default:
		sess.reply(ftp.CodeParamNotImpl, "Unknown DCSC context type")
	}
}

// printableASCII enforces §V's constraint that the blob contain only
// printable ASCII (32-126).
func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 32 || s[i] > 126 {
			return false
		}
	}
	return true
}

func (sess *session) handleRest(params string) {
	params = strings.TrimSpace(params)
	// Plain integer = classic stream-mode offset; range list = extended.
	if off, err := strconv.ParseInt(params, 10, 64); err == nil && off >= 0 {
		sess.restart = []Range{{0, off}}
		sess.reply(ftp.CodeNeedAccount, "Restart offset accepted")
		return
	}
	ranges, err := ParseRanges(params)
	if err != nil {
		sess.reply(ftp.CodeParamSyntaxError, errText(err))
		return
	}
	sess.restart = ranges
	sess.reply(ftp.CodeNeedAccount, "Restart ranges accepted")
}

func (sess *session) handleSize(params string) {
	p := sess.resolve(params)
	fi, err := sess.srv.cfg.Storage.Stat(sess.localUser, p)
	if err != nil || fi.IsDir {
		sess.reply(ftp.CodeFileUnavailable, "No such file")
		return
	}
	sess.reply(ftp.CodeFileStatus, strconv.FormatInt(fi.Size, 10))
}

func mlstFacts(fi dsi.FileInfo) string {
	t := "file"
	if fi.IsDir {
		t = "dir"
	}
	return fmt.Sprintf("Type=%s;Size=%d;Modify=%s; %s",
		t, fi.Size, fi.ModTime.UTC().Format("20060102150405"), fi.Name)
}

func (sess *session) handleMlst(params string) {
	p := sess.resolve(params)
	fi, err := sess.srv.cfg.Storage.Stat(sess.localUser, p)
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	sess.reply(ftp.CodeFileActionOK, "Listing "+p, mlstFacts(fi), "End")
}

// handleMlsc answers with the MLSD fact lines of a directory in a multi-line
// 250 on the control channel (GridFTP's MLSC): one round trip, and no data
// path state is read or changed, so a session's wiring and pooled channels
// are what they were. A listing too large for one reply is refused with 504
// — not implemented for that parameter — and MLSD is the way to get it.
func (sess *session) handleMlsc(params string) {
	p := sess.resolve(params)
	infos, err := sess.srv.cfg.Storage.List(sess.localUser, p)
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	lines := make([]string, 0, len(infos)+2)
	lines = append(lines, "Listing "+p)
	for _, fi := range infos {
		lines = append(lines, mlstFacts(fi))
	}
	lines = append(lines, "End")
	if err := sess.reply(ftp.CodeFileActionOK, lines...); errors.Is(err, ftp.ErrReplyTooLarge) {
		sess.reply(ftp.CodeParamNotImpl, "Listing too large for a control-channel reply; use MLSD")
	}
}

func (sess *session) handleMkd(params string) {
	p := sess.resolve(params)
	if err := sess.srv.cfg.Storage.Mkdir(sess.localUser, p); err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	sess.reply(ftp.CodePathCreated, fmt.Sprintf("%q created", p))
}

func (sess *session) handleDele(params string) {
	p := sess.resolve(params)
	if err := sess.srv.cfg.Storage.Remove(sess.localUser, p); err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	sess.reply(ftp.CodeFileActionOK, "Removed")
}

func (sess *session) handleRnfr(params string) {
	p := sess.resolve(params)
	if _, err := sess.srv.cfg.Storage.Stat(sess.localUser, p); err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	sess.renameFrom = p
	sess.reply(ftp.CodeNeedAccount, "Ready for RNTO")
}

func (sess *session) handleRnto(params string) {
	if sess.renameFrom == "" {
		sess.reply(ftp.CodeBadSequence, "RNFR required first")
		return
	}
	p := sess.resolve(params)
	err := sess.srv.cfg.Storage.Rename(sess.localUser, sess.renameFrom, p)
	sess.renameFrom = ""
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	sess.reply(ftp.CodeFileActionOK, "Renamed")
}

func errText(err error) string {
	if err == nil {
		return "OK"
	}
	var replyErr *ftp.ReplyError
	if errors.As(err, &replyErr) {
		return replyErr.Reply.Text()
	}
	return err.Error()
}
