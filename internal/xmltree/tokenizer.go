package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/runlimit"
)

// TokenKind classifies the tokens a Tokenizer returns.
type TokenKind uint8

const (
	// StartToken opens an element; Name, Attrs and ID describe it.
	StartToken TokenKind = iota + 1
	// EndToken closes the innermost open element. A self-closing tag
	// yields a StartToken followed by an EndToken.
	EndToken
	// TextToken carries significant character data; Text holds it
	// decoded. Merged reports whether it continues the text node of the
	// previous TextToken (the two were split only by a comment, a
	// processing instruction, a CDATA boundary or whitespace-only data).
	TextToken
)

// SyntaxError reports input that is not well-formed XML.
type SyntaxError struct {
	Msg  string
	Line int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("XML syntax error on line %d: %s", e.Line, e.Msg)
}

// defaultWindow is the initial size of the read window.
const defaultWindow = 64 << 10

// errShort reports that a token runs past the end of the window; the
// tokenizer refills the window and scans the token again.
var errShort = errors.New("xmltree: token crosses the window end")

// qname is an interned tag or attribute name. Names are interned once
// per parse and validated when first seen.
type qname struct {
	raw   string // as written, prefix included
	space string // namespace prefix, "" when none
	local string // the name the tree keeps
}

type attrRef struct {
	name       *qname
	start, end int // value bytes in Tokenizer.vals
}

// nsBinding records an xmlns:prefix declaration in scope. Only whether
// the prefix is bound to the URI "xmlns" matters: encoding/xml reports
// such attributes in the xmlns space, and the tree drops them.
type nsBinding struct {
	prefix string
	xmlns  bool
	depth  int
}

// Tokenizer is a byte-level pull tokenizer for the XML subset the tree
// model keeps: elements, attributes, text, CDATA sections, the five
// predefined entities and numeric character references. Comments,
// processing instructions and <!DOCTYPE …> declarations are skipped;
// any other entity reference is an error, so DTD entities are never
// expanded. Namespace prefixes are flattened to local names and
// namespace declarations are dropped.
//
// It enforces the tree's document rules as it goes: one root element,
// no content after it, whitespace-only text dropped, adjacent text
// merged, node IDs in document order from 1 (elements and significant
// text nodes), and the MaxDepth/MaxNodes ceilings of runlimit.Limits.
//
// The input is read through a window that is refilled in place and
// grows only when a single token does not fit, so memory stays bounded
// by the largest token rather than the document.
type Tokenizer struct {
	r    io.Reader
	err  error // sticky error from Next
	rerr error // read error to report once the window drains
	eof  bool  // r is exhausted
	buf  []byte
	pos  int // next unread byte in buf
	end  int // end of valid data in buf
	line int // newlines before buf[0]

	lim      runlimit.Limits
	names    map[string]*qname
	recent   [64]*qname // direct-mapped cache in front of names
	open     []*qname
	ns       []nsBinding
	nodes    int
	sawRoot  bool
	lastText bool // the last significant token was text
	closing  bool // a self-closing tag awaits its EndToken

	// The current token.
	name   *qname
	attrs  []attrRef
	vals   []byte
	text   []byte
	tbuf   []byte
	id     int
	merged bool
}

// NewTokenizer returns a tokenizer reading r under the MaxDepth and
// MaxNodes ceilings of lim (zero means unbounded).
func NewTokenizer(r io.Reader, lim runlimit.Limits) *Tokenizer {
	return newTokenizerSize(r, lim, defaultWindow)
}

func newTokenizerSize(r io.Reader, lim runlimit.Limits, window int) *Tokenizer {
	return &Tokenizer{
		r:     r,
		buf:   make([]byte, window),
		lim:   lim,
		names: make(map[string]*qname),
	}
}

// Name returns the local name of the element a StartToken opens.
func (t *Tokenizer) Name() string { return t.name.local }

// ID returns the document-order ID of the node a StartToken or an
// unmerged TextToken starts.
func (t *Tokenizer) ID() int { return t.id }

// Text returns the decoded character data of a TextToken. The slice is
// valid only until the next call to Next.
func (t *Tokenizer) Text() []byte { return t.text }

// Merged reports whether a TextToken continues the previous text node.
func (t *Tokenizer) Merged() bool { return t.merged }

// AppendAttrs appends the attributes of the current StartToken to dst
// in document order, namespace declarations dropped. The values share
// one string allocation.
func (t *Tokenizer) AppendAttrs(dst []Attr) []Attr {
	if len(t.attrs) == 0 {
		return dst
	}
	vals := string(t.vals)
	for _, a := range t.attrs {
		if a.name != nil {
			dst = append(dst, Attr{Name: a.name.local, Value: vals[a.start:a.end]})
		}
	}
	return dst
}

// Next advances to the next token. It returns io.EOF once the root
// element has closed and only whitespace, comments and processing
// instructions follow. Malformed input yields a *SyntaxError; a breached
// ceiling yields a *runlimit.LimitError. Once Next has returned an
// error, it returns the same error again.
func (t *Tokenizer) Next() (TokenKind, error) {
	if t.err != nil {
		return 0, t.err
	}
	kind, err := t.next()
	t.err = err
	return kind, err
}

func (t *Tokenizer) next() (TokenKind, error) {
	if t.closing {
		t.closing = false
		return t.closeElement(), nil
	}
	for {
		kind, err := t.scan()
		if err != nil {
			return 0, err
		}
		switch kind {
		case StartToken:
			return t.openElement()
		case EndToken:
			return t.closeElement(), nil
		case TextToken:
			if ok, err := t.significant(); ok || err != nil {
				return TextToken, err
			}
		}
	}
}

// openElement accounts for a scanned start tag.
func (t *Tokenizer) openElement() (TokenKind, error) {
	depth := len(t.open) + 1
	if t.lim.MaxDepth > 0 && depth > t.lim.MaxDepth {
		return 0, &runlimit.LimitError{Limit: "max-depth", Max: t.lim.MaxDepth, Observed: depth}
	}
	if err := t.countNode(); err != nil {
		return 0, err
	}
	if depth == 1 {
		if t.sawRoot {
			return 0, t.errorAt(0, "multiple root elements")
		}
		t.sawRoot = true
	}
	t.bindNamespaces(depth)
	t.open = append(t.open, t.name)
	t.lastText = false
	return StartToken, nil
}

// closeElement accounts for an end tag already matched by scanEnd.
func (t *Tokenizer) closeElement() TokenKind {
	depth := len(t.open)
	for len(t.ns) > 0 && t.ns[len(t.ns)-1].depth == depth {
		t.ns = t.ns[:len(t.ns)-1]
	}
	t.open = t.open[:depth-1]
	t.lastText = false
	return EndToken
}

// significant decides what a scanned run of character data is: dropped
// (outside the root before it opens, or whitespace only), an error
// (non-whitespace after the root), or a text node, possibly merged.
func (t *Tokenizer) significant() (bool, error) {
	blank := len(bytes.TrimSpace(t.text)) == 0
	if len(t.open) == 0 {
		if t.sawRoot && !blank {
			return false, t.errorAt(0, "non-whitespace content after root element")
		}
		return false, nil
	}
	if blank {
		return false, nil
	}
	t.merged = t.lastText
	if !t.merged {
		if err := t.countNode(); err != nil {
			return false, err
		}
	}
	t.lastText = true
	return true, nil
}

func (t *Tokenizer) countNode() error {
	t.nodes++
	if t.lim.MaxNodes > 0 && t.nodes > t.lim.MaxNodes {
		return &runlimit.LimitError{Limit: "max-nodes", Max: t.lim.MaxNodes, Observed: t.nodes}
	}
	t.id = t.nodes
	return nil
}

// bindNamespaces applies the start tag's xmlns:prefix declarations and
// marks the attributes encoding/xml would place in the xmlns space as
// dropped (name nil): declarations themselves, attributes named xmlns,
// and attributes whose prefix is bound to the URI "xmlns".
func (t *Tokenizer) bindNamespaces(depth int) {
	for _, a := range t.attrs {
		if a.name.space == "xmlns" {
			t.ns = append(t.ns, nsBinding{a.name.local, string(t.vals[a.start:a.end]) == "xmlns", depth})
		}
	}
	for i := range t.attrs {
		q := t.attrs[i].name
		if q.space == "xmlns" || q.local == "xmlns" || q.space != "" && t.boundToXmlns(q.space) {
			t.attrs[i].name = nil
		}
	}
}

func (t *Tokenizer) boundToXmlns(prefix string) bool {
	for i := len(t.ns) - 1; i >= 0; i-- {
		if t.ns[i].prefix == prefix {
			return t.ns[i].xmlns
		}
	}
	return false
}

// scan reads the next token, refilling the window as needed. It
// returns kind 0 for skipped markup.
func (t *Tokenizer) scan() (TokenKind, error) {
	for {
		if t.pos == t.end {
			if t.eof {
				return 0, t.atEOF()
			}
			if err := t.fill(); err != nil {
				return 0, err
			}
			continue
		}
		kind, n, err := t.token(t.buf[t.pos:t.end])
		if err == errShort {
			if t.eof {
				return 0, t.errorAt(t.end-t.pos, "unexpected EOF")
			}
			if err := t.fill(); err != nil {
				return 0, err
			}
			continue
		}
		if err != nil {
			return 0, err
		}
		t.pos += n
		return kind, nil
	}
}

// atEOF is the outcome of reaching the end of the input between tokens.
func (t *Tokenizer) atEOF() error {
	switch {
	case len(t.open) > 0:
		return t.errorAt(0, "unexpected EOF")
	case !t.sawRoot:
		return t.errorAt(0, "empty document")
	}
	return io.EOF
}

// fill moves the unread bytes to the front of the window, doubles the
// window if a single token already fills it, and reads until the window
// is full or the input ends. Filling the window whole matters: a token
// is scanned again from its start after every fill, so small reads must
// not mean small fills.
func (t *Tokenizer) fill() error {
	if t.rerr != nil {
		return t.rerr
	}
	if t.pos > 0 {
		t.line += bytes.Count(t.buf[:t.pos], []byte{'\n'})
		t.end = copy(t.buf, t.buf[t.pos:t.end])
		t.pos = 0
	}
	if t.end == len(t.buf) {
		grown := make([]byte, 2*len(t.buf))
		copy(grown, t.buf[:t.end])
		t.buf = grown
	}
	start := t.end
	for empty := 0; t.end < len(t.buf); {
		n, err := t.r.Read(t.buf[t.end:])
		t.end += n
		switch {
		case err == io.EOF:
			t.eof = true
			return nil
		case err != nil && t.end == start:
			return err
		case err != nil:
			t.rerr = err
			return nil
		case n == 0:
			if empty++; empty == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// errorAt returns a *SyntaxError for the byte at offset i of the
// unread window.
func (t *Tokenizer) errorAt(i int, msg string) error {
	line := t.line + bytes.Count(t.buf[:t.pos+i], []byte{'\n'}) + 1
	return &SyntaxError{Msg: msg, Line: line}
}

// token scans one token from the front of b, the unread window. It
// returns the token kind (0 for skipped markup), the bytes consumed,
// and errShort if the token does not end inside b.
func (t *Tokenizer) token(b []byte) (TokenKind, int, error) {
	if b[0] != '<' {
		n, err := t.scanText(b)
		return TextToken, n, err
	}
	if len(b) < 2 {
		return 0, 0, errShort
	}
	switch b[1] {
	case '/':
		n, err := t.scanEnd(b)
		return EndToken, n, err
	case '?':
		n, err := t.scanPI(b)
		return 0, n, err
	case '!':
		if len(b) < 3 {
			return 0, 0, errShort
		}
		switch b[2] {
		case '-':
			n, err := t.scanComment(b)
			return 0, n, err
		case '[':
			n, err := t.scanCDATA(b)
			return TextToken, n, err
		}
		n, err := t.scanDirective(b)
		return 0, n, err
	}
	n, err := t.scanStart(b)
	return StartToken, n, err
}

// scanText decodes the character data up to the next '<' or the end of
// the input. Text without references or carriage returns is returned
// as a slice of the window.
func (t *Tokenizer) scanText(b []byte) (int, error) {
	i := 0
	for i < len(b) && class[b[i]]&cText != 0 {
		i++
	}
	if i < len(b) && b[i] == '<' || i == len(b) && t.eof {
		t.text = b[:i]
		return i, nil
	}
	out, n, err := t.charData(append(t.tbuf[:0], b[:i]...), b, i, 0)
	t.tbuf, t.text = out, out
	return n, err
}

// charData decodes character data from b starting at i into out. With
// quote 0 it decodes text, which ends before '<' or at the end of the
// input; otherwise an attribute value, which ends after the closing
// quote. It returns the decoded data and the offset just past it.
func (t *Tokenizer) charData(out, b []byte, i int, quote byte) ([]byte, int, error) {
	for i < len(b) {
		c := b[i]
		if class[c]&cText != 0 && c != quote {
			out = append(out, c)
			i++
			continue
		}
		switch {
		case c == quote && quote != 0:
			return out, i + 1, nil
		case c == '<':
			if quote != 0 {
				return out, 0, t.errorAt(i, "unescaped < inside quoted string")
			}
			return out, i, nil
		case c == '&':
			var n int
			var err error
			out, n, err = t.reference(out, b[i:], i)
			if err != nil {
				return out, 0, err
			}
			i += n
		case c == '\r':
			// \r and \r\n become \n.
			if i+1 == len(b) && !t.eof {
				return out, 0, errShort
			}
			out = append(out, '\n')
			i++
			if i < len(b) && b[i] == '\n' {
				i++
			}
		case c == ']':
			if quote == 0 {
				if i+2 >= len(b) && !t.eof {
					return out, 0, errShort
				}
				if bytes.HasPrefix(b[i:], []byte("]]>")) {
					return out, 0, t.errorAt(i, "unescaped ]]> not in CDATA section")
				}
			}
			out = append(out, c)
			i++
		default:
			n, err := t.char(b[i:], i)
			if err != nil {
				return out, 0, err
			}
			out = append(out, b[i:i+n]...)
			i += n
		}
	}
	if quote != 0 || !t.eof {
		return out, 0, errShort
	}
	return out, i, nil
}

// char validates the character starting b (which is not a plain text
// byte) and returns its encoded length; at is its offset for errors.
func (t *Tokenizer) char(b []byte, at int) (int, error) {
	if b[0] < utf8.RuneSelf {
		if b[0] == '\t' || b[0] == '\n' || b[0] == '\r' || b[0] >= 0x20 {
			return 1, nil
		}
		return 0, t.errorAt(at, fmt.Sprintf("illegal character code %U", rune(b[0])))
	}
	r, n := utf8.DecodeRune(b)
	if r == utf8.RuneError && n == 1 {
		if !t.eof && !utf8.FullRune(b) {
			return 0, errShort
		}
		return 0, t.errorAt(at, "invalid UTF-8")
	}
	if !inCharRange(r) {
		return 0, t.errorAt(at, fmt.Sprintf("illegal character code %U", r))
	}
	return n, nil
}

// inCharRange reports whether r is an XML Char.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// reference decodes the entity or character reference at the front of
// b into out and returns the bytes consumed; at is its offset for
// errors.
func (t *Tokenizer) reference(out, b []byte, at int) ([]byte, int, error) {
	if len(b) > 1 && b[1] == '#' {
		i, base := 2, rune(10)
		if i < len(b) && b[i] == 'x' {
			i, base = 3, 16
		}
		start := i
		var r rune
		for ; i < len(b); i++ {
			d := digitVal(b[i], base)
			if d < 0 {
				break
			}
			if r <= utf8.MaxRune {
				r = r*base + d
			}
		}
		if i == len(b) {
			return out, 0, errShort
		}
		if b[i] != ';' || i == start || r > utf8.MaxRune {
			return out, 0, t.errorAt(at, "invalid character entity "+refText(b[:i+1]))
		}
		// Surrogates encode as U+FFFD, as string(rune) does.
		out = utf8.AppendRune(out, r)
		if r >= 0xD800 && r <= 0xDFFF {
			r = utf8.RuneError
		}
		if !inCharRange(r) {
			return out, 0, t.errorAt(at, fmt.Sprintf("illegal character code %U", r))
		}
		return out, i + 1, nil
	}
	i := 1
	for i < len(b) && (b[i] >= utf8.RuneSelf || class[b[i]]&cName != 0) {
		i++
	}
	if i == len(b) {
		return out, 0, errShort
	}
	if b[i] == ';' {
		var c byte
		switch string(b[1:i]) {
		case "lt":
			c = '<'
		case "gt":
			c = '>'
		case "amp":
			c = '&'
		case "apos":
			c = '\''
		case "quot":
			c = '"'
		}
		if c != 0 {
			return append(out, c), i + 1, nil
		}
	}
	return out, 0, t.errorAt(at, "invalid character entity "+refText(b[:i+1]))
}

// refText renders a malformed reference, which ends b, for an error
// message the way encoding/xml does.
func refText(b []byte) string {
	if b[len(b)-1] != ';' {
		return string(b[:len(b)-1]) + " (no semicolon)"
	}
	return string(b)
}

// digitVal returns the value of digit c in base 10 or 16, or -1.
func digitVal(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// scanStart scans a start tag: '<' name (S? name S? '=' S? value)* S? '/'? '>'.
func (t *Tokenizer) scanStart(b []byte) (int, error) {
	q, i, err := t.qname(b, 1, "expected element name after <")
	if err != nil {
		return 0, err
	}
	t.name = q
	t.attrs = t.attrs[:0]
	t.vals = t.vals[:0]
	for {
		i = skipSpace(b, i)
		if i == len(b) {
			return 0, errShort
		}
		switch b[i] {
		case '/':
			if i+1 == len(b) {
				return 0, errShort
			}
			if b[i+1] != '>' {
				return 0, t.errorAt(i, "expected /> in element")
			}
			t.closing = true
			return i + 2, nil
		case '>':
			return i + 1, nil
		}
		var a attrRef
		if a.name, i, err = t.qname(b, i, "expected attribute name in element"); err != nil {
			return 0, err
		}
		if i = skipSpace(b, i); i == len(b) {
			return 0, errShort
		}
		if b[i] != '=' {
			return 0, t.errorAt(i, "attribute name without = in element")
		}
		if i = skipSpace(b, i+1); i == len(b) {
			return 0, errShort
		}
		quote := b[i]
		if quote != '"' && quote != '\'' {
			return 0, t.errorAt(i, "unquoted or missing attribute value in element")
		}
		a.start = len(t.vals)
		if t.vals, i, err = t.charData(t.vals, b, i+1, quote); err != nil {
			return 0, err
		}
		a.end = len(t.vals)
		t.attrs = append(t.attrs, a)
	}
}

// scanEnd scans an end tag and matches it against the open element.
func (t *Tokenizer) scanEnd(b []byte) (int, error) {
	q, i, err := t.qname(b, 2, "expected element name after </")
	if err != nil {
		return 0, err
	}
	if i = skipSpace(b, i); i == len(b) {
		return 0, errShort
	}
	if b[i] != '>' {
		return 0, t.errorAt(i, "invalid characters between </"+q.local+" and >")
	}
	switch {
	case len(t.open) == 0:
		return 0, t.errorAt(0, "unexpected end element </"+q.local+">")
	case t.open[len(t.open)-1] != q:
		return 0, t.errorAt(0, "element <"+t.open[len(t.open)-1].local+"> closed by </"+q.local+">")
	}
	return i + 1, nil
}

// qname scans the name starting at b[i] and returns it interned
// together with the offset just past it. A name is a run of ASCII name
// bytes and non-ASCII bytes; it must be a valid XML name with at most
// one colon.
func (t *Tokenizer) qname(b []byte, i int, missing string) (*qname, int, error) {
	j := scanName(b, i)
	if j == len(b) {
		return nil, 0, errShort
	}
	if j == i {
		return nil, 0, t.errorAt(i, missing)
	}
	raw := b[i:j]
	h := (uint(len(raw)) + uint(raw[0])*3 + uint(raw[len(raw)-1])*5) % uint(len(t.recent))
	if q := t.recent[h]; q != nil && q.raw == string(raw) {
		return q, j, nil
	}
	if q := t.names[string(raw)]; q != nil {
		t.recent[h] = q
		return q, j, nil
	}
	if !isName(raw) {
		return nil, 0, t.errorAt(i, "invalid XML name: "+string(raw))
	}
	q := &qname{raw: string(raw)}
	q.local = q.raw
	switch bytes.Count(raw, []byte{':'}) {
	case 0:
	case 1:
		if k := bytes.IndexByte(raw, ':'); k > 0 && k < len(raw)-1 {
			q.space, q.local = q.raw[:k], q.raw[k+1:]
		}
	default:
		return nil, 0, t.errorAt(i, missing)
	}
	t.names[q.raw] = q
	t.recent[h] = q
	return q, j, nil
}

// scanName returns the end of the run of name bytes starting at b[i].
func scanName(b []byte, i int) int {
	for i < len(b) && (b[i] >= utf8.RuneSelf || class[b[i]]&cName != 0) {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && class[b[i]]&cSpace != 0 {
		i++
	}
	return i
}

// scanPI skips a processing instruction. The XML declaration must name
// version 1.0 and the UTF-8 encoding, if any.
func (t *Tokenizer) scanPI(b []byte) (int, error) {
	j := scanName(b, 2)
	if j == len(b) {
		return 0, errShort
	}
	if j == 2 || !isName(b[2:j]) {
		return 0, t.errorAt(2, "expected target name after <?")
	}
	start := skipSpace(b, j)
	k := bytes.Index(b[start:], []byte("?>"))
	if k < 0 {
		return 0, errShort
	}
	if string(b[2:j]) == "xml" {
		content := string(b[start : start+k])
		if ver := procInst("version", content); ver != "" && ver != "1.0" {
			return 0, fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInst("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return 0, fmt.Errorf("xml: encoding %q declared but only UTF-8 is supported", enc)
		}
	}
	return start + k + 2, nil
}

// procInst returns the value of the pseudo-attribute param in the
// content of an XML declaration, or "" if it has none. It reads the
// declaration the way encoding/xml does.
func procInst(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// scanComment skips a comment, which may not contain "--".
func (t *Tokenizer) scanComment(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, errShort
	}
	if b[3] != '-' {
		return 0, t.errorAt(0, "invalid sequence <!- not part of <!--")
	}
	k := bytes.Index(b[4:], []byte("--"))
	if k < 0 || 4+k+2 == len(b) {
		return 0, errShort
	}
	if b[4+k+2] != '>' {
		return 0, t.errorAt(4+k, `invalid sequence "--" not allowed in comments`)
	}
	return 4 + k + 3, nil
}

// scanCDATA decodes a CDATA section as character data.
func (t *Tokenizer) scanCDATA(b []byte) (int, error) {
	const open = "<![CDATA["
	n := min(len(b), len(open))
	if string(b[:n]) != open[:n] {
		return 0, t.errorAt(0, "invalid <![ sequence")
	}
	if n < len(open) {
		return 0, errShort
	}
	k := bytes.Index(b[len(open):], []byte("]]>"))
	if k < 0 {
		return 0, errShort
	}
	body := b[len(open) : len(open)+k]
	out := t.tbuf[:0]
	for i := 0; i < len(body); {
		c := body[i]
		switch {
		case c == '\r':
			out = append(out, '\n')
			i++
			if i < len(body) && body[i] == '\n' {
				i++
			}
		case class[c]&cText != 0 || c == '<' || c == '&' || c == ']':
			out = append(out, c)
			i++
		default:
			n, err := t.char(body[i:], len(open)+i)
			if err != nil {
				return 0, err
			}
			out = append(out, body[i:i+n]...)
			i += n
		}
	}
	t.tbuf, t.text = out, out
	return len(open) + k + 3, nil
}

// scanDirective skips a <!…> declaration such as <!DOCTYPE …>, tracking
// quotes, nested declarations and comments so that an internal subset
// whose declarations contain '>' is skipped whole. The byte after "<!"
// is taken as is, as encoding/xml does.
func (t *Tokenizer) scanDirective(b []byte) (int, error) {
	var quote byte
	depth := 0
	for i := 3; ; {
		if i == len(b) {
			return 0, errShort
		}
		c := b[i]
		i++
		if quote == 0 && c == '>' && depth == 0 {
			return i, nil
		}
	handle:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for _, want := range []byte("!--") {
				if i == len(b) {
					return 0, errShort
				}
				c = b[i]
				i++
				if c != want {
					depth++
					goto handle
				}
			}
			k := bytes.Index(b[i:], []byte("-->"))
			if k < 0 {
				return 0, errShort
			}
			i += k + 3
		}
	}
}

// Byte classes.
const (
	cText      = 1 << iota // copied as is into character data
	cSpace                 // the S production: space, tab, CR, LF
	cName                  // ASCII byte that may continue a name
	cNameStart             // ASCII byte that may start a name
)

var class = func() (c [256]uint8) {
	for b := 0x20; b < 0x80; b++ {
		c[b] = cText
	}
	c['\t'], c['\n'] = cText, cText
	c['<'], c['&'], c[']'] = 0, 0, 0
	for _, b := range []byte(" \t\r\n") {
		c[b] |= cSpace
	}
	for b := 0; b < 0x80; b++ {
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', b == '_', b == ':':
			c[b] |= cName | cNameStart
		case '0' <= b && b <= '9', b == '.', b == '-':
			c[b] |= cName
		}
	}
	return c
}()
