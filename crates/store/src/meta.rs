//! The store superblock: a small plain-text file pinning the codec
//! descriptor, sector size, and stripe count that every other on-disk
//! structure is interpreted against.
//!
//! There is one superblock version, `v3`. It records the codec as a
//! [`CodecSpec`] string, so [`crate::StripeStore::open`] can rebuild any
//! supported erasure code, plus the crash-consistency state: the journal
//! segment capacity and a `clean_shutdown` flag that records whether the
//! last close checkpointed the journal. Every key is required; a
//! superblock with any other magic line fails to open.

use std::fs;
use std::path::Path;
use std::str::FromStr;

use stair_code::CodecSpec;

use crate::Error;

/// File name of the superblock inside a store directory.
pub const META_FILE: &str = "store.meta";
/// Magic first line; bump the version when the layout changes.
pub const META_MAGIC: &str = "stair-store v3";

/// The immutable shape of a store (plus the two mutable
/// crash-consistency fields the superblock tracks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Which erasure code protects the stripes.
    pub codec: CodecSpec,
    /// Bytes per sector; also the logical block size.
    pub symbol: usize,
    /// Number of stripes in the store.
    pub stripes: usize,
    /// Capacity of the write-ahead journal segment in bytes.
    pub journal_segment: u64,
    /// Whether the last close checkpointed the journal (rewritten to
    /// `false` while the store is open, `true` on clean shutdown).
    pub clean_shutdown: bool,
}

impl StoreMeta {
    /// Validates the scalar fields (the codec spec itself is validated by
    /// constructing the codec — see [`crate::build_codec`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Meta`] if `symbol` or `stripes` is zero.
    pub fn validate(&self) -> Result<(), Error> {
        if self.symbol == 0 || self.stripes == 0 {
            return Err(Error::Meta("symbol and stripes must be positive".into()));
        }
        Ok(())
    }

    /// Serializes to the superblock text format.
    pub fn to_text(&self) -> String {
        format!(
            "{META_MAGIC}\ncodec {}\nsymbol {}\nstripes {}\njournal_segment {}\nclean_shutdown {}\n",
            self.codec,
            self.symbol,
            self.stripes,
            self.journal_segment,
            u8::from(self.clean_shutdown),
        )
    }

    /// Parses a superblock and validates it end to end (including
    /// building the codec, so a parsed superblock is always an openable
    /// one).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Meta`] for malformed text and [`Error::Code`] for
    /// specs naming impossible codecs.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let (meta, _codec) = Self::parse_with_codec(text)?;
        Ok(meta)
    }

    /// Like [`StoreMeta::parse`], but hands back the codec the validation
    /// pass built, so callers that need a live codec (the store's `open`)
    /// do not construct it twice.
    pub(crate) fn parse_with_codec(
        text: &str,
    ) -> Result<(Self, Box<dyn stair_code::ErasureCode>), Error> {
        let mut lines = text.lines();
        let magic = lines.next().unwrap_or_default();
        if magic != META_MAGIC {
            return Err(Error::Meta(format!(
                "bad magic `{magic}`, expected `{META_MAGIC}`"
            )));
        }
        let meta = Self::parse_body(lines)?;
        meta.validate()?;
        let codec = crate::build_codec(&meta.codec)?; // must be constructible
        Ok((meta, codec))
    }

    /// Parses the `key value` lines after the magic; every key is
    /// required, unknown keys are rejected.
    fn parse_body<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Self, Error> {
        let mut codec = None;
        let mut symbol = None;
        let mut stripes = None;
        let mut journal_segment = None;
        let mut clean_shutdown = None;
        for (key, value) in fields(lines)? {
            match key.as_str() {
                "codec" => {
                    codec = Some(CodecSpec::from_str(&value).map_err(Error::from)?);
                }
                "symbol" => symbol = Some(parse_usize(&key, &value)?),
                "stripes" => stripes = Some(parse_usize(&key, &value)?),
                "journal_segment" => {
                    journal_segment = Some(parse_usize(&key, &value)? as u64);
                }
                "clean_shutdown" => {
                    clean_shutdown = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(Error::Meta(format!(
                                "bad flag `{other}` for `clean_shutdown` (want 0 or 1)"
                            )))
                        }
                    });
                }
                _ => return Err(Error::Meta(format!("unknown key `{key}`"))),
            }
        }
        Ok(StoreMeta {
            codec: codec.ok_or_else(|| missing("codec"))?,
            symbol: symbol.ok_or_else(|| missing("symbol"))?,
            stripes: stripes.ok_or_else(|| missing("stripes"))?,
            journal_segment: journal_segment.ok_or_else(|| missing("journal_segment"))?,
            clean_shutdown: clean_shutdown.ok_or_else(|| missing("clean_shutdown"))?,
        })
    }

    /// Writes the superblock into `dir` — atomically (temp file +
    /// rename), because the store rewrites it on every open/close transition
    /// and a torn superblock would brick the store.
    pub fn save(&self, dir: &Path) -> Result<(), Error> {
        crate::integrity::write_atomic(dir, META_FILE, self.to_text().as_bytes())
    }

    /// Loads and validates the superblock from `dir`.
    pub fn load(dir: &Path) -> Result<Self, Error> {
        let (meta, _codec) = Self::load_with_codec(dir)?;
        Ok(meta)
    }

    /// Loads the superblock and the codec it names in one pass.
    pub(crate) fn load_with_codec(
        dir: &Path,
    ) -> Result<(Self, Box<dyn stair_code::ErasureCode>), Error> {
        let path = dir.join(META_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| Error::Meta(format!("cannot read {}: {e}", path.display())))?;
        Self::parse_with_codec(&text)
    }
}

fn parse_usize(key: &str, value: &str) -> Result<usize, Error> {
    value
        .parse::<usize>()
        .map_err(|_| Error::Meta(format!("bad integer `{value}` for `{key}`")))
}

fn missing(field: &str) -> Error {
    Error::Meta(format!("missing field `{field}`"))
}

fn fields<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Vec<(String, String)>, Error> {
    let mut out = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| Error::Meta(format!("malformed line `{line}`")))?;
        out.push((key.to_string(), value.to_string()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::DEFAULT_JOURNAL_SEGMENT;

    fn meta() -> StoreMeta {
        StoreMeta {
            codec: CodecSpec::Stair {
                n: 8,
                r: 4,
                m: 2,
                e: vec![1, 1, 2],
            },
            symbol: 512,
            stripes: 16,
            journal_segment: DEFAULT_JOURNAL_SEGMENT,
            clean_shutdown: true,
        }
    }

    #[test]
    fn text_round_trip() {
        let m = meta();
        assert_eq!(StoreMeta::parse(&m.to_text()).unwrap(), m);
        let sd = StoreMeta {
            codec: "sd:6,4,1,2".parse().unwrap(),
            ..meta()
        };
        assert_eq!(StoreMeta::parse(&sd.to_text()).unwrap(), sd);
    }

    #[test]
    fn v3_journal_fields_round_trip() {
        let m = StoreMeta {
            journal_segment: 123_456,
            clean_shutdown: false,
            ..meta()
        };
        let text = m.to_text();
        assert!(text.starts_with("stair-store v3\n"));
        assert!(text.contains("journal_segment 123456\n"));
        assert!(text.contains("clean_shutdown 0\n"));
        assert_eq!(StoreMeta::parse(&text).unwrap(), m);
        // Bad flag values are rejected.
        let bad = text.replace("clean_shutdown 0", "clean_shutdown yes");
        assert!(StoreMeta::parse(&bad).is_err());
    }

    #[test]
    fn rejects_bad_magic_and_bad_geometry() {
        assert!(matches!(
            StoreMeta::parse("nonsense\ncodec rs:4,2,1"),
            Err(Error::Meta(_))
        ));
        // e longer than feasible: codec construction must reject it.
        let mut bad = meta();
        bad.codec = CodecSpec::Stair {
            n: 8,
            r: 4,
            m: 2,
            e: vec![100],
        };
        assert!(StoreMeta::parse(&bad.to_text()).is_err());
    }

    #[test]
    fn rejects_zero_symbol_or_stripes() {
        for (symbol, stripes) in [(0, 16), (512, 0)] {
            let bad = StoreMeta {
                symbol,
                stripes,
                ..meta()
            };
            assert!(bad.validate().is_err());
            assert!(StoreMeta::parse(&bad.to_text()).is_err());
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("stair-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = meta();
        m.save(&dir).unwrap();
        assert_eq!(StoreMeta::load(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
