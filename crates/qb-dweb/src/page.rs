//! The web page model and its (deliberately tiny) HTML rendering/parsing.

use qb_common::{QbError, QbResult};

/// A page on the decentralized web.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebPage {
    /// Stable page name, e.g. `"wiki/decentralized-web"`.
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Body text (already plain text; the corpus generator produces prose).
    pub body: String,
    /// Names of pages this page links to.
    pub out_links: Vec<String>,
}

impl WebPage {
    /// Create a page.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        body: impl Into<String>,
        out_links: Vec<String>,
    ) -> WebPage {
        WebPage {
            name: name.into(),
            title: title.into(),
            body: body.into(),
            out_links,
        }
    }

    /// Render the page to its canonical HTML form. The rendering is
    /// deterministic, so the content cid of a page version is stable.
    pub fn render_html(&self) -> String {
        let mut html = String::with_capacity(self.body.len() + 256);
        html.push_str("<html><head><title>");
        escape_into(&self.title, &mut html);
        html.push_str("</title><meta name=\"dweb-name\" content=\"");
        escape_into(&self.name, &mut html);
        html.push_str("\"></head><body>\n<p>");
        escape_into(&self.body, &mut html);
        html.push_str("</p>\n");
        for link in &self.out_links {
            html.push_str("<a href=\"dweb://");
            escape_into(link, &mut html);
            html.push_str("\">");
            escape_into(link, &mut html);
            html.push_str("</a>\n");
        }
        html.push_str("</body></html>\n");
        html
    }

    /// Parse a page back from its canonical HTML form.
    pub fn from_html(html: &str) -> QbResult<WebPage> {
        let title = extract_between(html, "<title>", "</title>")
            .ok_or_else(|| QbError::Codec("page html has no <title>".into()))?;
        let name = extract_between(html, "dweb-name\" content=\"", "\"")
            .ok_or_else(|| QbError::Codec("page html has no dweb-name meta".into()))?;
        let body = extract_between(html, "<p>", "</p>")
            .ok_or_else(|| QbError::Codec("page html has no body paragraph".into()))?;
        let mut out_links = Vec::new();
        let mut rest = html;
        while let Some(start) = rest.find("href=\"dweb://") {
            let after = &rest[start + "href=\"dweb://".len()..];
            match after.find('"') {
                Some(end) => {
                    out_links.push(unescape(&after[..end]));
                    rest = &after[end..];
                }
                None => break,
            }
        }
        Ok(WebPage {
            name: unescape(name),
            title: unescape(title),
            body: unescape(body),
            out_links,
        })
    }

    /// The searchable text of the page: title plus body.
    pub fn text(&self) -> String {
        format!("{} {}", self.title, self.body)
    }
}

/// The four characters HTML escapes here, beside their entities.
const ENTITIES: [(char, &str); 4] = [
    ('&', "&amp;"),
    ('<', "&lt;"),
    ('>', "&gt;"),
    ('"', "&quot;"),
];

/// Append `s` to `out` with each of [`ENTITIES`]' characters escaped, in
/// one pass.
fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ENTITIES.iter().find(|&&(plain, _)| plain == ch) {
            Some((_, entity)) => out.push_str(entity),
            None => out.push(ch),
        }
    }
}

/// `s` with each of [`ENTITIES`]' entities decoded, in one pass. No entity
/// contains another's `&`, so decoding each occurrence where it starts is
/// what decoding one entity after the other, `&amp;` last, gives.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('&') {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        match ENTITIES.iter().find(|(_, entity)| rest.starts_with(entity)) {
            Some(&(plain, entity)) => {
                out.push(plain);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

fn extract_between<'h>(haystack: &'h str, start: &str, end: &str) -> Option<&'h str> {
    let s = haystack.find(start)? + start.len();
    let e = haystack[s..].find(end)? + s;
    Some(&haystack[s..e])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Escaping and unescaping as they were written, one `replace` per
    /// entity: the references the one-pass versions must equal.
    fn escape_by_replacing(s: &str) -> String {
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('"', "&quot;")
    }

    fn unescape_by_replacing(s: &str) -> String {
        s.replace("&quot;", "\"")
            .replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&amp;", "&")
    }

    proptest! {
        /// On text made of whole and broken entities, the characters they
        /// stand for and others, each one-pass version writes what its
        /// chain of replaces wrote.
        #[test]
        fn one_pass_escaping_equals_one_replace_per_entity(
            pieces in proptest::collection::vec(0usize..14, 0..16),
        ) {
            let alphabet = [
                "&amp;", "&lt;", "&gt;", "&quot;", "&", "<", ">", "\"", "amp;", "quot;", "&l",
                "t;", "a", "é",
            ];
            let s: String = pieces.iter().map(|&i| alphabet[i]).collect();
            let mut escaped = String::from("kept ");
            escape_into(&s, &mut escaped);
            prop_assert_eq!(&escaped["kept ".len()..], escape_by_replacing(&s));
            prop_assert_eq!(unescape(&s), unescape_by_replacing(&s));
        }
    }

    fn sample() -> WebPage {
        WebPage::new(
            "wiki/dweb",
            "The Decentralized Web",
            "Content is addressed by cryptographic hash and served by peers.",
            vec!["wiki/ipfs".into(), "wiki/ndn".into()],
        )
    }

    #[test]
    fn render_and_parse_round_trip() {
        let page = sample();
        let html = page.render_html();
        assert!(html.contains("dweb://wiki/ipfs"));
        let parsed = WebPage::from_html(&html).unwrap();
        assert_eq!(parsed, page);
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().render_html(), sample().render_html());
    }

    #[test]
    fn parse_rejects_non_pages() {
        assert!(WebPage::from_html("not html at all").is_err());
        assert!(WebPage::from_html("<html><body>no title</body></html>").is_err());
    }

    #[test]
    fn text_includes_title_and_body() {
        let t = sample().text();
        assert!(t.contains("Decentralized"));
        assert!(t.contains("cryptographic"));
    }

    #[test]
    fn escaping_handles_special_characters() {
        let page = WebPage::new(
            "a&b",
            "Title with <tags> & \"quotes\"",
            "body < > & \"",
            vec!["x&y".into()],
        );
        let parsed = WebPage::from_html(&page.render_html()).unwrap();
        assert_eq!(parsed, page);
    }

    proptest! {
        #[test]
        fn round_trip_random_pages(
            name in "[a-z]{1,12}(/[a-z]{1,12})?",
            title in "[a-zA-Z ]{0,40}",
            body in "[a-zA-Z0-9 .,]{0,200}",
            links in proptest::collection::vec("[a-z]{1,10}", 0..5),
        ) {
            let page = WebPage::new(name, title, body, links);
            let parsed = WebPage::from_html(&page.render_html()).unwrap();
            prop_assert_eq!(parsed, page);
        }
    }
}
