//! Property tests for the clip text format (`hotspot_geometry::io`).
//!
//! Inputs are lines built from tokens: the format's keywords and unknown
//! ones, coordinates at and past the `i64` range, non-integers, wrong
//! arities, comments and blank lines. `read_clips` never panics on them;
//! every parse error names a line of the input; a bad line after
//! well-formed records is reported at its own 1-based line; and whatever
//! `read_clips` accepts, `write_clips` writes back unchanged.

use hotspot_geometry::io::{read_clips, write_clips, ClipIoError};
use hotspot_geometry::{Clip, Rect};
use proptest::prelude::*;
use proptest::{collection, sample};

/// Coordinate tokens: integers from the middle and both ends of the
/// `i64` range, one past each end, and non-integers.
fn coord() -> impl Strategy<Value = String> {
    sample::select(
        [
            "0",
            "1",
            "-1",
            "+7",
            "600",
            "1200",
            "-9223372036854775808",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775809",
            "1.5",
            "1e3",
            "0x10",
            "x",
        ]
        .map(String::from)
        .to_vec(),
    )
}

/// A trailing comment, or none.
fn comment() -> impl Strategy<Value = &'static str> {
    sample::select(vec!["", " # note", "#", "  # clip 0 0 1 1", "\t# end"])
}

/// Any line: indent, a keyword (known, unknown or none), 0–5 coordinate
/// tokens and a comment.
fn any_line() -> impl Strategy<Value = String> {
    (
        sample::select(vec!["", "  ", "\t"]),
        sample::select(vec!["clip", "rect", "end", "poly", "Rect", "endd", ""]),
        collection::vec(coord(), 0..6),
        comment(),
    )
        .prop_map(|(indent, keyword, coords, comment)| {
            format!("{indent}{keyword} {}{comment}", coords.join(" "))
        })
}

/// A non-empty span `lo < hi` whose ends may be `i64::MIN` or `i64::MAX`.
fn span() -> impl Strategy<Value = (i64, i64)> {
    let ends = vec![i64::MIN, -1200, -1, 0, 1, 600, 1200, i64::MAX];
    (sample::select(ends.clone()), sample::select(ends)).prop_map(|(a, b)| match a.cmp(&b) {
        std::cmp::Ordering::Less => (a, b),
        std::cmp::Ordering::Greater => (b, a),
        std::cmp::Ordering::Equal if a == i64::MAX => (a - 1, a),
        std::cmp::Ordering::Equal => (a, a + 1),
    })
}

fn rect() -> impl Strategy<Value = Rect> {
    (span(), span()).prop_map(|((x0, x1), (y0, y1))| Rect::new(x0, y0, x1, y1).unwrap())
}

fn rect_tokens(r: &Rect) -> String {
    format!("{} {} {} {}", r.lo().x, r.lo().y, r.hi().x, r.hi().y)
}

/// One well-formed record: its window, and its lines (the `rect` lines
/// may lie partly or wholly outside the window), each with a comment.
fn record() -> impl Strategy<Value = (Rect, Vec<String>)> {
    (
        rect(),
        collection::vec(rect(), 0..4),
        collection::vec(comment(), 6),
    )
        .prop_map(|(window, shapes, notes)| {
            let mut lines = vec![format!("clip {}{}", rect_tokens(&window), notes[0])];
            for (shape, note) in shapes.iter().zip(&notes[1..]) {
                lines.push(format!("  rect {}{note}", rect_tokens(shape)));
            }
            lines.push(format!("end{}", notes[5]));
            (window, lines)
        })
}

/// A line that fails to parse wherever it stands after complete records:
/// an unknown keyword, `end` or `rect` outside a record, or a `clip`
/// whose coordinates are not four integers.
fn bad_line() -> impl Strategy<Value = String> {
    let non_integer = sample::select(
        [
            "1.5",
            "x",
            "9223372036854775808",
            "-9223372036854775809",
            "1e3",
        ]
        .map(String::from)
        .to_vec(),
    );
    prop_oneof![
        (
            sample::select(vec!["poly", "Rect", "endd", "0"]),
            collection::vec(coord(), 0..6)
        )
            .prop_map(|(keyword, coords)| format!("{keyword} {}", coords.join(" "))),
        (
            sample::select(vec!["end", "rect"]),
            collection::vec(coord(), 0..6)
        )
            .prop_map(|(keyword, coords)| format!("{keyword} {}", coords.join(" "))),
        prop_oneof![
            collection::vec(coord(), 0..4),
            collection::vec(coord(), 5..7)
        ]
        .prop_map(|coords| format!("clip {}", coords.join(" "))),
        (collection::vec(coord(), 3), non_integer, 0usize..4).prop_map(|(mut coords, bad, at)| {
            coords.insert(at, bad);
            format!("clip {}", coords.join(" "))
        }),
    ]
}

fn roundtrip(clips: &[Clip]) -> Vec<Clip> {
    let mut buf = Vec::new();
    write_clips(&mut buf, clips).expect("writing to a Vec cannot fail");
    read_clips(buf.as_slice()).expect("written clips read back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_lines_parse_or_fail_with_a_typed_error(lines in collection::vec(any_line(), 0..16)) {
        let text = lines.join("\n");
        match read_clips(text.as_bytes()) {
            Ok(clips) => prop_assert_eq!(roundtrip(&clips), clips),
            Err(ClipIoError::Parse { line, reason }) => prop_assert!(
                (1..=lines.len()).contains(&line),
                "line {line} of {}: {reason}\n{text}",
                lines.len()
            ),
            Err(ClipIoError::Geometry { line, source }) => prop_assert!(
                (1..=lines.len()).contains(&line),
                "line {line} of {}: {source}\n{text}",
                lines.len()
            ),
            Err(ClipIoError::Io(e)) => prop_assert!(false, "i/o error from a byte slice: {e}"),
        }
    }

    #[test]
    fn well_formed_records_round_trip(
        records in collection::vec(record(), 0..5),
        blank in sample::select(vec!["", "# header", "   "]),
    ) {
        let mut lines = vec![blank.to_string()];
        for (_, record) in &records {
            lines.extend(record.iter().cloned());
        }
        let clips = read_clips(lines.join("\n").as_bytes()).expect("well-formed records parse");
        prop_assert_eq!(clips.len(), records.len());
        for (clip, (window, _)) in clips.iter().zip(&records) {
            prop_assert_eq!(clip.window(), *window);
        }
        prop_assert_eq!(roundtrip(&clips), clips);
    }

    #[test]
    fn a_bad_line_is_reported_at_its_own_line(
        before in collection::vec(record(), 0..4),
        bad in bad_line(),
        after in collection::vec(record(), 0..2),
    ) {
        let mut lines: Vec<String> = before.into_iter().flat_map(|(_, r)| r).collect();
        lines.push(bad);
        let at = lines.len();
        lines.extend(after.into_iter().flat_map(|(_, r)| r));
        match read_clips(lines.join("\n").as_bytes()) {
            Err(e @ ClipIoError::Parse { line, .. }) => {
                prop_assert_eq!(line, at, "{}", e);
                prop_assert!(e.to_string().contains(&format!("line {at}:")), "{}", e);
            }
            other => prop_assert!(false, "line {at} {:?}: expected a parse error, got {other:?}", lines[at - 1]),
        }
    }
}
