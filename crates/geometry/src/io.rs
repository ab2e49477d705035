//! Plain-text clip interchange format.
//!
//! Real physical-verification flows exchange pattern libraries between
//! tools; this module defines a minimal line-oriented format for clips so
//! benchmarks, hotspot libraries and single patterns can be saved and
//! reloaded without a GDSII dependency:
//!
//! ```text
//! # comments and blank lines are ignored
//! clip 0 0 1200 1200      # window: x0 y0 x1 y1 (nm)
//! rect 100 100 200 1100   # one shape per line, window-relative absolute nm
//! rect 300 100 400 1100
//! end
//! ```
//!
//! Multiple `clip … end` records may appear in one file/stream.

use crate::{Clip, GeometryError, Rect};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors from reading the clip text format.
#[derive(Debug)]
pub enum ClipIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse, with its 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A `clip` or `rect` line has degenerate coordinates (`lo >= hi`).
    Geometry {
        /// 1-based line number.
        line: usize,
        /// Why the rectangle is invalid.
        source: GeometryError,
    },
}

impl fmt::Display for ClipIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClipIoError::Io(e) => write!(f, "i/o failure: {e}"),
            ClipIoError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
            ClipIoError::Geometry { line, source } => {
                write!(f, "invalid geometry at line {line}: {source}")
            }
        }
    }
}

impl Error for ClipIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClipIoError::Io(e) => Some(e),
            ClipIoError::Geometry { source, .. } => Some(source),
            ClipIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ClipIoError {
    fn from(e: std::io::Error) -> Self {
        ClipIoError::Io(e)
    }
}

/// Writes clips in the text format. Pass `&mut` of any [`Write`]r.
///
/// # Errors
///
/// Propagates I/O failures.
///
/// # Examples
///
/// ```
/// use hotspot_geometry::{io, Clip, Rect};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut clip = Clip::new(Rect::new(0, 0, 1200, 1200)?);
/// clip.push(Rect::new(100, 100, 200, 1100)?);
/// let mut buf = Vec::new();
/// io::write_clips(&mut buf, [&clip])?;
/// let back = io::read_clips(&mut buf.as_slice())?;
/// assert_eq!(back, vec![clip]);
/// # Ok(())
/// # }
/// ```
pub fn write_clips<'a, W, I>(writer: W, clips: I) -> Result<(), ClipIoError>
where
    W: Write,
    I: IntoIterator<Item = &'a Clip>,
{
    let mut w = writer;
    for clip in clips {
        let win = clip.window();
        writeln!(
            w,
            "clip {} {} {} {}",
            win.lo().x,
            win.lo().y,
            win.hi().x,
            win.hi().y
        )?;
        for r in clip.shapes() {
            writeln!(
                w,
                "rect {} {} {} {}",
                r.lo().x,
                r.lo().y,
                r.hi().x,
                r.hi().y
            )?;
        }
        writeln!(w, "end")?;
    }
    Ok(())
}

/// Reads every clip record from a text stream. Pass `&mut` of any
/// [`BufRead`]er (e.g. `&mut file_bytes.as_slice()`).
///
/// # Errors
///
/// Every error names the 1-based line it is about:
///
/// - [`ClipIoError::Parse`] on a malformed line (unknown keyword, wrong
///   arity, `rect` outside a record, `end` with arguments), or at its
///   `clip` line for a record the input leaves unterminated;
/// - [`ClipIoError::Geometry`] on a `clip` or `rect` with degenerate
///   coordinates.
pub fn read_clips<R: BufRead>(reader: R) -> Result<Vec<Clip>, ClipIoError> {
    let mut clips = Vec::new();
    // The open record and the line of its `clip`.
    let mut current: Option<(Clip, usize)> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let mut parts = line.split('#').next().unwrap_or("").split_whitespace();
        // A blank or comment-only line has no keyword.
        let Some(keyword) = parts.next() else {
            continue;
        };
        let args: Vec<&str> = parts.collect();
        match keyword {
            "clip" => {
                if current.is_some() {
                    return Err(ClipIoError::Parse {
                        line: lineno,
                        reason: "nested 'clip' before 'end'".into(),
                    });
                }
                let window = parse_rect(&args, lineno)?;
                current = Some((Clip::new(window), lineno));
            }
            "rect" => {
                let (clip, _) = current.as_mut().ok_or_else(|| ClipIoError::Parse {
                    line: lineno,
                    reason: "'rect' outside a clip record".into(),
                })?;
                clip.push(parse_rect(&args, lineno)?);
            }
            "end" => {
                if !args.is_empty() {
                    return Err(ClipIoError::Parse {
                        line: lineno,
                        reason: format!("'end' takes no arguments, got {}", args.len()),
                    });
                }
                let (clip, _) = current.take().ok_or_else(|| ClipIoError::Parse {
                    line: lineno,
                    reason: "'end' without a clip record".into(),
                })?;
                clips.push(clip);
            }
            other => {
                return Err(ClipIoError::Parse {
                    line: lineno,
                    reason: format!("unknown keyword '{other}'"),
                });
            }
        }
    }
    if let Some((_, line)) = current {
        return Err(ClipIoError::Parse {
            line,
            reason: "unterminated clip record at end of input".into(),
        });
    }
    Ok(clips)
}

/// The rectangle of a `clip` or `rect` line's four coordinates.
fn parse_rect(args: &[&str], lineno: usize) -> Result<Rect, ClipIoError> {
    let [x0, y0, x1, y1] = parse_coords(args, lineno)?;
    Rect::new(x0, y0, x1, y1).map_err(|source| ClipIoError::Geometry {
        line: lineno,
        source,
    })
}

fn parse_coords(args: &[&str], lineno: usize) -> Result<[i64; 4], ClipIoError> {
    if args.len() != 4 {
        return Err(ClipIoError::Parse {
            line: lineno,
            reason: format!("expected 4 coordinates, got {}", args.len()),
        });
    }
    let mut out = [0i64; 4];
    for (slot, token) in out.iter_mut().zip(args.iter()) {
        *slot = token.parse().map_err(|_| ClipIoError::Parse {
            line: lineno,
            reason: format!("'{token}' is not an integer"),
        })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_clip() -> Clip {
        let mut c = Clip::new(Rect::new(0, 0, 1200, 1200).unwrap());
        c.push(Rect::new(100, 100, 200, 1100).unwrap());
        c.push(Rect::new(300, 100, 400, 1100).unwrap());
        c
    }

    #[test]
    fn roundtrip_multiple_clips() {
        let a = sample_clip();
        let mut b = Clip::new(Rect::new(1000, 1000, 2200, 2200).unwrap());
        b.push(Rect::new(1100, 1100, 1500, 1500).unwrap());
        let mut buf = Vec::new();
        write_clips(&mut buf, [&a, &b]).unwrap();
        let back = read_clips(buf.as_slice()).unwrap();
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header comment\nclip 0 0 100 100\n  # indented comment\nrect 10 10 20 20 # trailing\n\nend\n";
        let clips = read_clips(text.as_bytes()).unwrap();
        assert_eq!(clips.len(), 1);
        assert_eq!(clips[0].shape_count(), 1);
    }

    #[test]
    fn empty_input_is_empty_vec() {
        assert!(read_clips("".as_bytes()).unwrap().is_empty());
        assert!(read_clips("# only comments\n".as_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        // rect before clip.
        assert!(matches!(
            read_clips("rect 0 0 1 1\n".as_bytes()),
            Err(ClipIoError::Parse { line: 1, .. })
        ));
        // Wrong arity.
        assert!(matches!(
            read_clips("clip 0 0 100\n".as_bytes()),
            Err(ClipIoError::Parse { line: 1, .. })
        ));
        // Non-integer.
        assert!(matches!(
            read_clips("clip 0 0 1x0 100\n".as_bytes()),
            Err(ClipIoError::Parse { .. })
        ));
        // Unknown keyword.
        assert!(matches!(
            read_clips("polygon 0 0 1 1\n".as_bytes()),
            Err(ClipIoError::Parse { .. })
        ));
        // end without clip.
        assert!(matches!(
            read_clips("end\n".as_bytes()),
            Err(ClipIoError::Parse { .. })
        ));
        // Nested clip.
        assert!(matches!(
            read_clips("clip 0 0 10 10\nclip 0 0 10 10\n".as_bytes()),
            Err(ClipIoError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn an_unterminated_record_is_reported_at_its_clip_line() {
        let text = "clip 0 0 10 10\nend\n# next\nclip 0 0 10 10\nrect 0 0 5 5\n\n";
        let err = read_clips(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ClipIoError::Parse { line: 4, .. }), "{err:?}");
        assert!(err.to_string().contains("line 4:"), "{err}");
    }

    #[test]
    fn a_degenerate_clip_or_rect_names_its_line() {
        for (text, at) in [
            ("clip 0 0 10 10\nrect 5 5 5 8\nend\n", 2),
            ("\nclip 0 0 10 10\nend\nclip 7 0 7 10\nend\n", 4),
        ] {
            let err = read_clips(text.as_bytes()).unwrap_err();
            match &err {
                ClipIoError::Geometry { line, .. } => assert_eq!(*line, at, "{text:?}"),
                other => panic!("{text:?}: expected a geometry error, got {other:?}"),
            }
            assert!(err.to_string().contains(&format!("line {at}:")), "{err}");
        }
    }

    #[test]
    fn end_with_arguments_is_a_parse_error() {
        let text = "clip 0 0 10 10\nrect 0 0 5 5\nend of record 42\n";
        let err = read_clips(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ClipIoError::Parse { line: 3, .. }), "{err:?}");
        // A trailing comment is not an argument.
        assert_eq!(
            read_clips("clip 0 0 10 10\nend # 42\n".as_bytes())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn shapes_outside_window_are_clamped_like_push() {
        let text = "clip 0 0 100 100\nrect -50 -50 50 50\nend\n";
        let clips = read_clips(text.as_bytes()).unwrap();
        assert_eq!(clips[0].shapes()[0], Rect::new(0, 0, 50, 50).unwrap());
    }
}
