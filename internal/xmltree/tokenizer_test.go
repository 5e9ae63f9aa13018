package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"time"
	"unicode/utf8"

	"repro/internal/runlimit"
)

// tokenizerSeeds are the divergence classes between a byte-level
// tokenizer and encoding/xml worth pinning down, plus the shapes of
// real input.
var tokenizerSeeds = []string{
	"<movie_database><movies><movie year=\"1999\"><title>Matrix</title></movie></movies></movie_database>",
	`<x:a :=""></x:a>`,
	`<a :b="1" b:="2" xml:lang="en"/>`,
	`<a:b:c/>`,
	`<p:a xmlns:p="u"><p:b/></p:a>`,
	`<p:a></q:a>`,
	`<a xmlns:p="xmlns" p:x="1" q:y="2" xmlns="u" xmlns:="3" y:xmlns="4"><b p:z="5"/></a><!-- -->`,
	`<a><b xmlns:p="xmlns"/><c p:z="5"/></a>`,
	"<a>x<![CDATA[ ]]>y</a>",
	"<a><![CDATA[  ]]>x<![CDATA[ ]]></a>",
	"<a> <![CDATA[x]]> </a>",
	"<a>x<!-- c -->y<?pi z?>z<b/>w</a>",
	"<a><b/>&#9;<c/></a>",
	"<a>&#x85;<b/>&#xA0;</a>",
	"<a x=\"1\r\n2\r3\">l1\r\nl2\rl3&#13;\n\r&amp;\n</a>",
	"<a><![CDATA[c\r\nd\r]]></a>",
	`<!DOCTYPE a [<!ENTITY x "y">]><a>t</a>`,
	`<!DOCTYPE a [<!ENTITY x "<y>"> <!-- > --> <!ELEMENT a (#PCDATA)>]><a>t</a>`,
	`<!DOCTYPE a [<!ENTITY x "y">]><a>&x;</a>`,
	`<a>&x;</a>`,
	`<a>&amp</a>`,
	`<a>&;</a>`,
	`<a>& b</a>`,
	`<a x="<"/>`,
	`<a x=">]]>&lt;"/>`,
	`<a>]]></a>`,
	`<a>]]]></a>`,
	`<a><![CDATA[]]]]></a>`,
	`<a><!-- a -- b --></a>`,
	`<a><!----></a>`,
	`<a><!---></a>`,
	"<a>\xff</a>",
	"<a>\x01</a>",
	"<a>\x00</a>",
	"<a x=\"\x00\"/>",
	"<a\xff/>",
	"<\xc3\xa9/>",
	"<a>\xef\xbf\xbe</a>",
	"\xef\xbb\xbf<a/>",
	"<r/>&#65;",
	"<r/> \n",
	"hi<a/>",
	"<a/><b/>",
	"<a/>x",
	"<a>",
	"<a>text",
	"<a>te&am",
	"</a>",
	"<a></a></a>",
	"",
	"   ",
	"<",
	"<!",
	"<!-",
	"<![CDAT",
	`<a>&#0;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#0000000065;&#x000041;</a>`,
	`<a>&#;</a>`,
	`<a>&#12a;</a>`,
	`<a x="1" x="2"/>`,
	`<a x="1"y="2"/>`,
	`<a x = '1' />`,
	`<a x=1/>`,
	`<a x/>`,
	`<a / >`,
	`<a></a >`,
	`<a></a x>`,
	`< a/>`,
	`<1a/>`,
	`<a.b-c_d/>`,
	`<?xml version="1.0" encoding="utf-8"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml encoding="latin1"?><a/>`,
	`<?xml?><a/>`,
	`<? x?><a/>`,
	`<?a:b:c d?><a/>`,
	`<!DOCTYPE a><a/><!DOCTYPE b>`,
	`<!>a><a/>`,
	`<!"><a/>`,
	`<!DOCTYPE a '>'><a/>`,
	`<!DOCTYPE a <<!-- x -->>><a/>`,
	`<!DOCTYPE a <!- >><a/>`,
	"<a><b>one</b>two<c>three</c></a>",
	strings.Repeat("<d>", 12) + "x" + strings.Repeat("</d>", 12),
	"<r>" + strings.Repeat("<e>text</e>", 6) + "</r>",
}

func FuzzTokenizerMatchesEncodingXML(f *testing.F) {
	for i, s := range tokenizerSeeds {
		f.Add(s, uint8(0), uint8(0), uint8(i))
		f.Add(s, uint8(3), uint8(7), uint8(i))
	}
	f.Fuzz(func(t *testing.T, input string, depth, nodes, window uint8) {
		lim := runlimit.Limits{MaxDepth: int(depth % 16), MaxNodes: int(nodes % 64)}
		if err := diffParse(input, lim, int(window%32)+1); err != nil {
			t.Fatalf("%v\ninput: %q\nlimits: %+v", err, input, lim)
		}
	})
}

// diffParse parses input with the encoding/xml oracle and with the
// tokenizer, once through the default window and once through a window
// of the given size fed one byte per read, and reports the first
// difference in outcome or tree.
func diffParse(input string, lim runlimit.Limits, window int) error {
	want, werr := parseOracle(strings.NewReader(input), lim)
	for _, tz := range []*Tokenizer{
		NewTokenizer(strings.NewReader(input), lim),
		newTokenizerSize(iotest.OneByteReader(strings.NewReader(input)), lim, window),
	} {
		got, gerr := build(tz)
		if (werr == nil) != (gerr == nil) {
			return fmt.Errorf("window %d: oracle error %v, tokenizer error %v", len(tz.buf), werr, gerr)
		}
		var wl, gl *runlimit.LimitError
		if errors.As(werr, &wl) != errors.As(gerr, &gl) {
			return fmt.Errorf("window %d: oracle error %v, tokenizer error %v", len(tz.buf), werr, gerr)
		}
		if wl != nil && (wl.Limit != gl.Limit || wl.Observed != gl.Observed) {
			return fmt.Errorf("window %d: oracle limit %+v, tokenizer limit %+v", len(tz.buf), wl, gl)
		}
		if werr == nil {
			if err := diffTree(want.Root, got.Root, nil); err != nil {
				return fmt.Errorf("window %d: %w", len(tz.buf), err)
			}
		}
	}
	return nil
}

// diffTree compares two trees node by node: kind, name, data,
// attributes, ID and parent links.
func diffTree(a, b, parent *Node) error {
	where := fmt.Sprintf("node %d (%q)", a.ID, a.Name)
	switch {
	case a.Kind != b.Kind || a.Name != b.Name || a.ID != b.ID:
		return fmt.Errorf("%s: got kind %d name %q id %d", where, b.Kind, b.Name, b.ID)
	case a.Data != b.Data:
		return fmt.Errorf("%s: data %q, got %q", where, a.Data, b.Data)
	case fmt.Sprint(a.Attrs) != fmt.Sprint(b.Attrs):
		return fmt.Errorf("%s: attrs %q, got %q", where, a.Attrs, b.Attrs)
	case b.Parent != parent:
		return fmt.Errorf("%s: wrong parent", where)
	case len(a.Children) != len(b.Children):
		return fmt.Errorf("%s: %d children, got %d", where, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if err := diffTree(a.Children[i], b.Children[i], b); err != nil {
			return err
		}
	}
	return nil
}

// The generated corpus must parse identically through every window
// size, including windows smaller than most tokens.
func TestTokenizerMatchesEncodingXMLOnGeneratedDocument(t *testing.T) {
	doc := string(genDocument(300, 1))
	for _, window := range []int{1, 7, 64, 4096} {
		if err := diffParse(doc, runlimit.Limits{}, window); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
	}
}

// Names are validated exactly as encoding/xml validates them, for every
// rune in the first and in a later position.
func TestNameClassesMatchEncodingXML(t *testing.T) {
	accepts := func(s string) bool {
		d := xml.NewDecoder(strings.NewReader(s))
		for {
			if _, err := d.Token(); err != nil {
				return err == io.EOF
			}
		}
	}
	for r := rune(0x80); r <= 0x10FFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		c := string(r)
		if got, want := isName([]byte(c)), accepts("<"+c+"/>"); got != want {
			t.Fatalf("%U as first rune: isName %v, encoding/xml %v", r, got, want)
		}
		if got, want := isName([]byte("a"+c)), accepts("<a"+c+"/>"); got != want {
			t.Fatalf("%U as later rune: isName %v, encoding/xml %v", r, got, want)
		}
	}
	for c := 0; c < utf8.RuneSelf; c++ {
		b := []byte{byte(c)}
		if class[c]&cName == 0 {
			continue // ends a name rather than invalidating it
		}
		if got, want := isName(b), accepts("<"+string(b)+"/>"); got != want {
			t.Errorf("%q as first byte: isName %v, encoding/xml %v", c, got, want)
		}
		if got, want := isName(append([]byte("a"), b...)), accepts("<a"+string(b)+"/>"); got != want {
			t.Errorf("%q as later byte: isName %v, encoding/xml %v", c, got, want)
		}
	}
}

// The window holds one token at most: on a multi-MB document of small
// tokens it never grows, and an oversized token grows it by doubling to
// less than twice that token's size.
func TestTokenizerWindowStaysBounded(t *testing.T) {
	doc := genDocument(20000, 2)
	if len(doc) < 4<<20 {
		t.Fatalf("generated document is only %d bytes", len(doc))
	}
	largest := largestToken(doc)
	for _, window := range []int{defaultWindow, 256, 64} {
		tz := newTokenizerSize(bytes.NewReader(doc), runlimit.Limits{}, window)
		if err := drain(tz); err != nil {
			t.Fatal(err)
		}
		if bound := max(window, 2*(largest+2)); len(tz.buf) > bound {
			t.Errorf("window %d grew to %d on a %d-byte document whose largest token is %d bytes",
				window, len(tz.buf), len(doc), largest)
		}
		if window > 2*(largest+2) && len(tz.buf) != window {
			t.Errorf("window %d grew to %d, yet every token fits", window, len(tz.buf))
		}
	}

	big := strings.Repeat("lorem ipsum ", 30000) // 360 KB of text
	in := "<r><a>x</a>" + big + "<b/></r>"
	tz := newTokenizerSize(strings.NewReader(in), runlimit.Limits{}, 4096)
	if err := drain(tz); err != nil {
		t.Fatal(err)
	}
	if len(tz.buf) < len(big) || len(tz.buf) > 2*(len(big)+2) {
		t.Errorf("window is %d bytes after a %d-byte token", len(tz.buf), len(big))
	}
}

// A breach on a self-closing tag leaves its end token pending; Next
// must keep reporting the breach rather than emit that token.
func TestTokenizerErrorIsSticky(t *testing.T) {
	tz := NewTokenizer(strings.NewReader("<r><a/></r>"), runlimit.Limits{MaxDepth: 1})
	if kind, err := tz.Next(); kind != StartToken || err != nil {
		t.Fatalf("first token: %v %v", kind, err)
	}
	_, first := tz.Next()
	var le *runlimit.LimitError
	if !errors.As(first, &le) || le.Limit != "max-depth" {
		t.Fatalf("want max-depth, got %v", first)
	}
	if _, again := tz.Next(); again != first {
		t.Fatalf("after %v, Next returned %v", first, again)
	}
}

// A token is scanned again after every refill, so refills must fill the
// window even when the reader returns one byte at a time; otherwise a
// large token costs time quadratic in its size.
func TestTokenizerLargeTokenFromSmallReads(t *testing.T) {
	big := strings.Repeat("lorem ipsum ", 40000) // 480 KB of text
	start := time.Now()
	doc, err := Parse(iotest.OneByteReader(strings.NewReader("<r>" + big + "</r>")))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Children[0].Data != big {
		t.Fatal("text changed")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("a %d-byte token read one byte at a time took %v", len(big), d)
	}
}

func drain(tz *Tokenizer) error {
	for {
		if _, err := tz.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// largestToken returns the length of the longest tag or text run in a
// document without comments, CDATA or declarations containing '>'.
func largestToken(doc []byte) int {
	largest := 0
	for len(doc) > 0 {
		n := bytes.IndexByte(doc[1:], '<') + 1
		if doc[0] == '<' {
			n = bytes.IndexByte(doc, '>') + 1
		}
		if n <= 0 {
			n = len(doc)
		}
		largest = max(largest, n)
		doc = doc[n:]
	}
	return largest
}

// genDocument builds a deterministic movie database of n movies with
// attributes, entity and character references, CDATA, comments and
// non-ASCII text: the shapes the tokenizer meets in real input.
func genDocument(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"Silent", "River", "Ñandú", "Night", "of", "the", "Crimson", "Tide", "Kino", "東京", "Rock & Roll", "<Echo>", "\"Dawn\""}
	phrase := func(k int) string {
		var b strings.Builder
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		return b.String()
	}
	var b bytes.Buffer
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- generated -->\n<movie_database>\n  <movies>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    <movie id=\"m%d\" year=\"%d\">\n", i, 1950+rng.Intn(70))
		fmt.Fprintf(&b, "      <title>%s</title>\n", xmlEscape(phrase(1+rng.Intn(4))))
		b.WriteString("      <people>\n")
		for p := rng.Intn(4); p >= 0; p-- {
			fmt.Fprintf(&b, "        <person role=\"%s\"><firstname>%s</firstname><lastname>%s</lastname></person>\n",
				xmlEscape(phrase(1)), xmlEscape(phrase(1)), xmlEscape(phrase(1)))
		}
		b.WriteString("      </people>\n")
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "      <review><![CDATA[%s]]></review>\n", phrase(8))
		case 1:
			fmt.Fprintf(&b, "      <review>%s&#x2605;&#9733;</review>\n", xmlEscape(phrase(6)))
		}
		b.WriteString("    </movie>\n")
	}
	b.WriteString("  </movies>\n</movie_database>\n")
	return b.Bytes()
}

func xmlEscape(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

// BenchmarkParse reports MB/s and allocs/op for the tokenizer-based
// parser and, as a same-process reference, the encoding/xml parser it
// replaced, over a generated 2k-movie document.
func BenchmarkParse(b *testing.B) {
	doc := genDocument(2000, 1)
	for _, bc := range []struct {
		name  string
		parse func(io.Reader, runlimit.Limits) (*Document, error)
	}{
		{"tokenizer", ParseWithLimits},
		{"encoding-xml", parseOracle},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.parse(bytes.NewReader(doc), runlimit.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
