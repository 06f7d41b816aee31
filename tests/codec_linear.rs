//! The JSON codec costs what its bytes cost. A parser that re-scans the
//! rest of the document for every character of a string takes seconds
//! on a 256 KB string and minutes on a multi-megabyte one; these guards
//! hold a multi-megabyte string and a frame carrying a 1 MB spec
//! comment to a generous wall-clock bound.

use std::time::{Duration, Instant};

use rumor_fleet::frame::{read_frame, write_frame};
use rumor_fleet::{report_to_json, run_frames, ServiceConfig, ServiceExit};
use rumor_spreading::core::obs::json::Json;
use rumor_spreading::core::spec::{GraphSpec, Protocol, SimSpec};

/// Far above the linear codec's cost (milliseconds, even unoptimised)
/// and far below the quadratic one's.
const BOUND: Duration = Duration::from_secs(20);

#[test]
fn a_multi_megabyte_string_parses_in_linear_time() {
    // ASCII runs broken by every escape form and by 2-, 3- and 4-byte
    // UTF-8 characters, as JSON text and as the string it decodes to.
    let raw = r#"ascii run \" \\ \/ \b \f \n \r \t é € é € 😀 "#;
    let decoded = "ascii run \" \\ / \u{8} \u{c} \n \r \t é € é € 😀 ";
    let copies = (2 << 20) / raw.len() + 1;
    let text = format!("{{\"s\": \"{}\"}}", raw.repeat(copies));
    assert!(text.len() >= 2 << 20);
    let started = Instant::now();
    let doc = Json::parse(&text).unwrap();
    let elapsed = started.elapsed();
    assert!(elapsed < BOUND, "parsing {} bytes took {elapsed:?}", text.len());
    assert_eq!(doc.get("s").and_then(Json::as_str), Some(decoded.repeat(copies).as_str()));
}

#[test]
fn a_frame_with_a_megabyte_spec_comment_gets_its_report() {
    let spec =
        SimSpec::new(GraphSpec::Complete { n: 8 }).protocol(Protocol::push_pull_async()).trials(3);
    let unit = "comment é € 😀 ";
    let comment = "# ".to_owned() + &unit.repeat((1 << 20) / unit.len() + 1);
    assert!(comment.len() >= 1 << 20);
    let request = Json::Obj(vec![
        ("id".to_owned(), Json::Num(1.0)),
        ("spec".to_owned(), Json::Str(format!("{comment}\n{}", spec.to_spec_string().unwrap()))),
    ]);
    let mut input = Vec::new();
    write_frame(&mut input, request.render().as_bytes()).unwrap();
    let started = Instant::now();
    let mut output = Vec::new();
    let exit = run_frames(&mut input.as_slice(), &mut output, &ServiceConfig::default()).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(exit, ServiceExit::Eof(1));
    assert!(elapsed < BOUND, "serving a {} byte frame took {elapsed:?}", input.len());
    let frame = read_frame(&mut output.as_slice()).unwrap().expect("a response frame");
    let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(response.get("id"), Some(&Json::Num(1.0)));
    let direct = report_to_json(&spec.build().unwrap().run());
    assert_eq!(response.get("report"), Some(&direct));
}
