//! Streaming, allocation-light Bookshelf readers.
//!
//! The record parsers in [`crate::parse_nodes`] & friends materialize one
//! `String` per name and one `Vec` per net — fine at 1k cells, ruinous at a
//! million. The pull readers here yield entries whose string fields are
//! `&str` slices *borrowed from the input text*: parsing a 119 MB `.nets`
//! file allocates nothing per line, and a consumer that interns names into
//! its own arena (as [`crate::Design::assemble_streaming`] does) never
//! copies a byte it does not keep.
//!
//! Each reader parses the file header eagerly (so builders can pre-size
//! from the declared counts) and validates the declared counts against the
//! records actually seen when the stream is exhausted, exactly like the
//! record parsers. The record parsers are thin wrappers over these readers,
//! so both paths accept the same dialect and report the same errors.

use crate::error::ParseBookshelfError;
use crate::lexer::{parse_f64, split_key_value, Lines};
use crate::nets::PinDirectionHint;

/// Declared counts from a `.nodes` header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodesHeader {
    /// `NumNodes` — total node records.
    pub num_nodes: usize,
    /// `NumTerminals` — how many of them are fixed terminals.
    pub num_terminals: usize,
}

/// One `.nodes` record, borrowing the node name from the input text.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NodeEntry<'a> {
    /// Node (cell or terminal) name.
    pub name: &'a str,
    /// Width in Bookshelf site units.
    pub width: f64,
    /// Height in Bookshelf site units.
    pub height: f64,
    /// Whether the node is a fixed terminal.
    pub terminal: bool,
}

/// Pull reader over a `.nodes` file.
pub struct NodesReader<'a> {
    lines: Lines<'a>,
    header: NodesHeader,
    seen: usize,
    seen_terminals: usize,
}

impl<'a> NodesReader<'a> {
    /// Opens the reader, consuming the format header and count lines.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBookshelfError`] if the `NumNodes`/`NumTerminals`
    /// header lines are missing or malformed.
    pub fn new(text: &'a str) -> Result<Self, ParseBookshelfError> {
        let mut lines = Lines::new("nodes", text);
        lines.skip_format_header();
        let num_nodes = lines.expect_count("NumNodes")?;
        let num_terminals = lines.expect_count("NumTerminals")?;
        Ok(Self {
            lines,
            header: NodesHeader {
                num_nodes,
                num_terminals,
            },
            seen: 0,
            seen_terminals: 0,
        })
    }

    /// The declared counts, for pre-sizing builders.
    pub fn header(&self) -> NodesHeader {
        self.header
    }

    /// The next node record, or `None` at end of file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBookshelfError`] for malformed records, and — on the
    /// call that reaches end of file — when the declared counts disagree
    /// with the records seen.
    pub fn next_node(&mut self) -> Result<Option<NodeEntry<'a>>, ParseBookshelfError> {
        let Some((no, line)) = self.lines.next_line() else {
            if self.seen != self.header.num_nodes {
                return Err(ParseBookshelfError::new(
                    "nodes",
                    0,
                    format!(
                        "NumNodes says {} but found {} records",
                        self.header.num_nodes, self.seen
                    ),
                ));
            }
            if self.seen_terminals != self.header.num_terminals {
                return Err(ParseBookshelfError::new(
                    "nodes",
                    0,
                    format!(
                        "NumTerminals says {} but found {}",
                        self.header.num_terminals, self.seen_terminals
                    ),
                ));
            }
            return Ok(None);
        };
        let mut tokens = line.split_whitespace();
        let name = tokens
            .next()
            .ok_or_else(|| self.lines.error(no, "expected a node name"))?;
        let width = parse_f64(
            "nodes",
            no,
            tokens
                .next()
                .ok_or_else(|| self.lines.error(no, "missing width"))?,
            "width",
        )?;
        let height = parse_f64(
            "nodes",
            no,
            tokens
                .next()
                .ok_or_else(|| self.lines.error(no, "missing height"))?,
            "height",
        )?;
        let terminal = match tokens.next() {
            None => false,
            Some(t) if t.eq_ignore_ascii_case("terminal") => true,
            Some(t) if t.eq_ignore_ascii_case("terminal_NI") => true,
            Some(t) => return Err(self.lines.error(no, format!("unexpected token `{t}`"))),
        };
        self.seen += 1;
        self.seen_terminals += usize::from(terminal);
        Ok(Some(NodeEntry {
            name,
            width,
            height,
            terminal,
        }))
    }
}

/// Declared counts from a `.nets` header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NetsHeader {
    /// `NumNets` — total net records.
    pub num_nets: usize,
    /// `NumPins` — total pin lines across all nets.
    pub num_pins: usize,
}

/// One `NetDegree` header line: the pins follow via
/// [`NetsReader::next_pin`], exactly `degree` of them.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NetEntry<'a> {
    /// Net name as written, or `None` when the file omits it (consumers
    /// conventionally substitute `net{index}`).
    pub name: Option<&'a str>,
    /// Declared pin count.
    pub degree: usize,
    /// Zero-based index of this net in file order.
    pub index: usize,
}

/// One pin line of the current net.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NetPinEntry<'a> {
    /// Name of the node the pin belongs to.
    pub node: &'a str,
    /// Direction marker, if present.
    pub direction: Option<PinDirectionHint>,
    /// Pin x offset from the node center, site units (0 if unspecified).
    pub offset_x: f64,
    /// Pin y offset from the node center, site units (0 if unspecified).
    pub offset_y: f64,
}

/// Pull reader over a `.nets` file.
///
/// Usage: call [`next_net`](Self::next_net); for each returned entry call
/// [`next_pin`](Self::next_pin) exactly `degree` times before asking for
/// the next net.
pub struct NetsReader<'a> {
    lines: Lines<'a>,
    header: NetsHeader,
    nets_seen: usize,
    pins_seen: usize,
    /// Pins left to read in the current net.
    pins_remaining: usize,
    /// Line number and degree of the current `NetDegree` header, for
    /// truncation diagnostics.
    current_line: usize,
    current_degree: usize,
    current_name: Option<&'a str>,
}

impl<'a> NetsReader<'a> {
    /// Opens the reader, consuming the format header and count lines.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBookshelfError`] if the `NumNets`/`NumPins` header
    /// lines are missing or malformed.
    pub fn new(text: &'a str) -> Result<Self, ParseBookshelfError> {
        let mut lines = Lines::new("nets", text);
        lines.skip_format_header();
        let num_nets = lines.expect_count("NumNets")?;
        let num_pins = lines.expect_count("NumPins")?;
        Ok(Self {
            lines,
            header: NetsHeader { num_nets, num_pins },
            nets_seen: 0,
            pins_seen: 0,
            pins_remaining: 0,
            current_line: 0,
            current_degree: 0,
            current_name: None,
        })
    }

    /// The declared counts, for pre-sizing builders.
    pub fn header(&self) -> NetsHeader {
        self.header
    }

    /// Display name of the current net, substituting the conventional
    /// default for unnamed records.
    fn current_display_name(&self) -> String {
        match self.current_name {
            Some(n) => n.to_string(),
            None => format!("net{}", self.nets_seen.saturating_sub(1)),
        }
    }

    /// The next `NetDegree` header, or `None` at end of file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBookshelfError`] for malformed headers, if the
    /// previous net's pins were not fully consumed, and — at end of file —
    /// when declared counts disagree with the records seen.
    pub fn next_net(&mut self) -> Result<Option<NetEntry<'a>>, ParseBookshelfError> {
        if self.pins_remaining > 0 {
            return Err(ParseBookshelfError::new(
                "nets",
                self.current_line,
                format!(
                    "net `{}`: {} pin(s) not consumed before next_net",
                    self.current_display_name(),
                    self.pins_remaining
                ),
            ));
        }
        let Some((no, line)) = self.lines.next_line() else {
            if self.nets_seen != self.header.num_nets {
                return Err(ParseBookshelfError::new(
                    "nets",
                    0,
                    format!(
                        "NumNets says {} but found {}",
                        self.header.num_nets, self.nets_seen
                    ),
                ));
            }
            if self.pins_seen != self.header.num_pins {
                return Err(ParseBookshelfError::new(
                    "nets",
                    0,
                    format!(
                        "NumPins says {} but found {}",
                        self.header.num_pins, self.pins_seen
                    ),
                ));
            }
            return Ok(None);
        };
        let (key, rest) = split_key_value(line).ok_or_else(|| {
            self.lines
                .error(no, format!("expected `NetDegree : d name`, got `{line}`"))
        })?;
        if !key.eq_ignore_ascii_case("NetDegree") {
            return Err(self
                .lines
                .error(no, format!("expected `NetDegree`, got `{key}`")));
        }
        let mut rest_tokens = rest.split_whitespace();
        let degree: usize = rest_tokens
            .next()
            .ok_or_else(|| self.lines.error(no, "missing net degree"))?
            .parse()
            .map_err(|_| self.lines.error(no, "net degree is not an integer"))?;
        let name = rest_tokens.next();
        let index = self.nets_seen;
        self.nets_seen += 1;
        self.pins_remaining = degree;
        self.current_line = no;
        self.current_degree = degree;
        self.current_name = name;
        Ok(Some(NetEntry {
            name,
            degree,
            index,
        }))
    }

    /// The next pin line of the current net.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBookshelfError`] if called with no pins remaining,
    /// if the file ends mid-net, or for malformed pin lines.
    pub fn next_pin(&mut self) -> Result<NetPinEntry<'a>, ParseBookshelfError> {
        if self.pins_remaining == 0 {
            return Err(ParseBookshelfError::new(
                "nets",
                self.current_line,
                "next_pin called with no pins remaining",
            ));
        }
        let Some((no, line)) = self.lines.next_line() else {
            return Err(ParseBookshelfError::new(
                "nets",
                self.current_line,
                format!(
                    "net `{}` ends before {} pins",
                    self.current_display_name(),
                    self.current_degree
                ),
            ));
        };
        self.pins_remaining -= 1;
        self.pins_seen += 1;
        // Forms: `node`, `node I`, `node I : x y`.
        let (head, offsets) = match line.split_once(':') {
            Some((h, o)) => (h.trim(), Some(o.trim())),
            None => (line, None),
        };
        let mut tokens = head.split_whitespace();
        let node = tokens
            .next()
            .ok_or_else(|| self.lines.error(no, "expected a node name on pin line"))?;
        let direction = match tokens.next() {
            None => None,
            Some(t) => Some(
                PinDirectionHint::from_token(t)
                    .ok_or_else(|| self.lines.error(no, format!("unknown pin direction `{t}`")))?,
            ),
        };
        if let Some(t) = tokens.next() {
            return Err(self
                .lines
                .error(no, format!("unexpected token `{t}` on pin line")));
        }
        let (offset_x, offset_y) = match offsets {
            None => (0.0, 0.0),
            Some(o) => {
                let mut toks = o.split_whitespace();
                let x = parse_f64(
                    "nets",
                    no,
                    toks.next()
                        .ok_or_else(|| self.lines.error(no, "missing pin x offset"))?,
                    "pin x offset",
                )?;
                let y = parse_f64(
                    "nets",
                    no,
                    toks.next()
                        .ok_or_else(|| self.lines.error(no, "missing pin y offset"))?,
                    "pin y offset",
                )?;
                (x, y)
            }
        };
        Ok(NetPinEntry {
            node,
            direction,
            offset_x,
            offset_y,
        })
    }
}

/// One `.pl` record, borrowing name and orientation from the input text.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PlEntry<'a> {
    /// Node name.
    pub name: &'a str,
    /// X coordinate, site units.
    pub x: f64,
    /// Y coordinate, site units.
    pub y: f64,
    /// Layer index for 3D placements (`None` in standard 2D files).
    pub layer: Option<u32>,
    /// Orientation token (`N` when unspecified).
    pub orient: &'a str,
    /// Whether the record carries the `/FIXED` attribute.
    pub fixed: bool,
}

/// Pull reader over a `.pl` file (2D or the 3D layer extension).
pub struct PlReader<'a> {
    lines: Lines<'a>,
}

impl<'a> PlReader<'a> {
    /// Opens the reader, consuming the optional format header.
    pub fn new(text: &'a str) -> Self {
        let mut lines = Lines::new("pl", text);
        lines.skip_format_header();
        Self { lines }
    }

    /// The next placement record, or `None` at end of file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBookshelfError`] for records with missing or
    /// non-numeric coordinates or unknown trailing attributes.
    pub fn next_record(&mut self) -> Result<Option<PlEntry<'a>>, ParseBookshelfError> {
        let Some((no, line)) = self.lines.next_line() else {
            return Ok(None);
        };
        let (head, tail) = match line.split_once(':') {
            Some((h, t)) => (h.trim(), Some(t.trim())),
            None => (line, None),
        };
        let mut tokens = head.split_whitespace();
        let name = tokens
            .next()
            .ok_or_else(|| self.lines.error(no, "expected a node name"))?;
        let x = parse_f64(
            "pl",
            no,
            tokens
                .next()
                .ok_or_else(|| self.lines.error(no, "missing x"))?,
            "x",
        )?;
        let y = parse_f64(
            "pl",
            no,
            tokens
                .next()
                .ok_or_else(|| self.lines.error(no, "missing y"))?,
            "y",
        )?;
        let layer = match tokens.next() {
            None => None,
            Some(t) => Some(t.parse::<u32>().map_err(|_| {
                self.lines
                    .error(no, format!("layer `{t}` is not an integer"))
            })?),
        };
        if let Some(t) = tokens.next() {
            return Err(self.lines.error(no, format!("unexpected token `{t}`")));
        }
        let (orient, fixed) = match tail {
            None => ("N", false),
            Some(t) => {
                let mut toks = t.split_whitespace();
                let orient = toks.next().unwrap_or("N");
                let fixed = match toks.next() {
                    None => false,
                    Some(a) if a.eq_ignore_ascii_case("/FIXED") => true,
                    Some(a) if a.eq_ignore_ascii_case("/FIXED_NI") => true,
                    Some(a) => {
                        return Err(self.lines.error(no, format!("unexpected attribute `{a}`")))
                    }
                };
                (orient, fixed)
            }
        };
        Ok(Some(PlEntry {
            name,
            x,
            y,
            layer,
            orient,
            fixed,
        }))
    }
}

/// One `.wts` record, borrowing the name from the input text.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WtsEntry<'a> {
    /// Net (or node, in some suites) name.
    pub name: &'a str,
    /// Weight value.
    pub weight: f64,
}

/// Pull reader over a `.wts` file.
pub struct WtsReader<'a> {
    lines: Lines<'a>,
}

impl<'a> WtsReader<'a> {
    /// Opens the reader, consuming the optional format header.
    pub fn new(text: &'a str) -> Self {
        let mut lines = Lines::new("wts", text);
        lines.skip_format_header();
        Self { lines }
    }

    /// The next weight record, or `None` at end of file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBookshelfError`] for records without exactly a name
    /// and a numeric weight.
    pub fn next_record(&mut self) -> Result<Option<WtsEntry<'a>>, ParseBookshelfError> {
        let Some((no, line)) = self.lines.next_line() else {
            return Ok(None);
        };
        let mut tokens = line.split_whitespace();
        let name = tokens
            .next()
            .ok_or_else(|| self.lines.error(no, "expected a name"))?;
        let weight = parse_f64(
            "wts",
            no,
            tokens
                .next()
                .ok_or_else(|| self.lines.error(no, "missing weight"))?,
            "weight",
        )?;
        if let Some(t) = tokens.next() {
            return Err(self.lines.error(no, format!("unexpected token `{t}`")));
        }
        Ok(Some(WtsEntry { name, weight }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_reader_streams_without_copying() {
        let text = "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\n a 4 8\n p 1 1 terminal\n";
        let mut r = NodesReader::new(text).unwrap();
        assert_eq!(
            r.header(),
            NodesHeader {
                num_nodes: 2,
                num_terminals: 1
            }
        );
        let a = r.next_node().unwrap().unwrap();
        assert_eq!(a.name, "a");
        // The name is a slice of the input, not a copy.
        assert_eq!(
            a.name.as_ptr(),
            text[text.find(" a 4").unwrap() + 1..].as_ptr()
        );
        let p = r.next_node().unwrap().unwrap();
        assert!(p.terminal);
        assert!(r.next_node().unwrap().is_none());
    }

    #[test]
    fn nodes_reader_validates_counts_at_eof() {
        let mut r = NodesReader::new("NumNodes : 2\nNumTerminals : 0\n a 1 1\n").unwrap();
        r.next_node().unwrap();
        assert!(r.next_node().unwrap_err().to_string().contains("NumNodes"));
    }

    #[test]
    fn nets_reader_streams_nets_and_pins() {
        let text =
            "NumNets : 2\nNumPins : 3\nNetDegree : 2 n0\n a O\n b I : 0.5 -1\nNetDegree : 1\n b\n";
        let mut r = NetsReader::new(text).unwrap();
        let n0 = r.next_net().unwrap().unwrap();
        assert_eq!(n0.name, Some("n0"));
        assert_eq!(n0.degree, 2);
        let p0 = r.next_pin().unwrap();
        assert_eq!(p0.node, "a");
        assert_eq!(p0.direction, Some(PinDirectionHint::Output));
        let p1 = r.next_pin().unwrap();
        assert_eq!((p1.offset_x, p1.offset_y), (0.5, -1.0));
        let n1 = r.next_net().unwrap().unwrap();
        assert_eq!(n1.name, None);
        assert_eq!(n1.index, 1);
        r.next_pin().unwrap();
        assert!(r.next_net().unwrap().is_none());
    }

    #[test]
    fn nets_reader_rejects_unconsumed_pins() {
        let text = "NumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a\n b\n";
        let mut r = NetsReader::new(text).unwrap();
        r.next_net().unwrap();
        assert!(r
            .next_net()
            .unwrap_err()
            .to_string()
            .contains("not consumed"));
    }

    #[test]
    fn nets_reader_reports_truncated_net() {
        let text = "NumNets : 1\nNumPins : 3\nNetDegree : 3 n0\n a\n b\n";
        let mut r = NetsReader::new(text).unwrap();
        r.next_net().unwrap();
        r.next_pin().unwrap();
        r.next_pin().unwrap();
        let err = r.next_pin().unwrap_err();
        assert!(err.to_string().contains("ends before 3 pins"));
    }

    #[test]
    fn pl_reader_streams_records() {
        let mut r = PlReader::new("UCLA pl 1.0\na1 12 24 : N\na2 -3 0.5 3 : FS /FIXED\n");
        let a1 = r.next_record().unwrap().unwrap();
        assert_eq!((a1.name, a1.x, a1.y, a1.layer), ("a1", 12.0, 24.0, None));
        let a2 = r.next_record().unwrap().unwrap();
        assert_eq!(a2.layer, Some(3));
        assert_eq!(a2.orient, "FS");
        assert!(a2.fixed);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn wts_reader_streams_records() {
        let mut r = WtsReader::new("UCLA wts 1.0\nn0 1\nn1 2.5\n");
        assert_eq!(r.next_record().unwrap().unwrap().weight, 1.0);
        let n1 = r.next_record().unwrap().unwrap();
        assert_eq!((n1.name, n1.weight), ("n1", 2.5));
        assert!(r.next_record().unwrap().is_none());
    }
}
