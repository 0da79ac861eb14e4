//! The attacks the paper anticipates against QueenBee's incentive model.

use qb_dweb::WebPage;

/// Collusion attack: a coalition of worker bees manipulates index and rank
/// data to push its own pages to the top (and thereby capture popularity
/// rewards and ad revenue).
#[derive(Debug, Clone)]
pub struct CollusionAttack {
    /// Fraction of worker bees that are part of the coalition.
    pub colluding_fraction: f64,
    /// Pages the coalition boosts.
    pub boost_pages: Vec<String>,
}

impl CollusionAttack {
    /// Create an attack boosting the given pages.
    pub fn new(colluding_fraction: f64, boost_pages: Vec<String>) -> CollusionAttack {
        CollusionAttack {
            colluding_fraction: colluding_fraction.clamp(0.0, 1.0),
            boost_pages,
        }
    }

    /// Number of colluding bees out of `num_bees`.
    pub fn colluders(&self, num_bees: usize) -> usize {
        ((num_bees as f64) * self.colluding_fraction).round() as usize
    }
}

/// Scraper-site attack: an attacker mirrors popular pages under its own
/// names/accounts to capture publish rewards, popularity rewards and ad
/// revenue that should have gone to the original creators.
#[derive(Debug, Clone)]
pub struct ScraperAttack {
    /// Account id of the scraper.
    pub scraper_account: u64,
    /// How many of the most popular pages the scraper mirrors.
    pub num_mirrors: usize,
    /// Fraction of words the scraper rewrites to try to evade duplicate
    /// detection (0.0 = verbatim copy).
    pub obfuscation: f64,
}

impl ScraperAttack {
    /// Create a verbatim-mirroring attack.
    pub fn new(scraper_account: u64, num_mirrors: usize) -> ScraperAttack {
        ScraperAttack {
            scraper_account,
            num_mirrors,
            obfuscation: 0.0,
        }
    }

    /// Produce the mirror of a victim page under a scraper-owned name.
    /// `mirror_index` distinguishes multiple mirrors.
    pub fn mirror_page(
        &self,
        victim: &WebPage,
        mirror_index: usize,
        rng: &mut qb_common::DetRng,
    ) -> WebPage {
        let mut words: Vec<String> = victim
            .body
            .split_whitespace()
            .map(|s| s.to_string())
            .collect();
        if self.obfuscation > 0.0 && !words.is_empty() {
            let rewrites = ((words.len() as f64) * self.obfuscation) as usize;
            for _ in 0..rewrites {
                let pos = rng.gen_index(words.len());
                words[pos] = format!("obfs{}", rng.gen_index(1000));
            }
        }
        WebPage::new(
            format!("scraped/{}/{}", self.scraper_account, mirror_index),
            victim.title.clone(),
            words.join(" "),
            victim.out_links.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_common::DetRng;

    #[test]
    fn collusion_counts_colluders() {
        let a = CollusionAttack::new(0.25, vec!["spam/page".into()]);
        assert_eq!(a.colluders(8), 2);
        assert_eq!(a.colluders(0), 0);
        let full = CollusionAttack::new(2.0, vec![]);
        assert_eq!(full.colluding_fraction, 1.0);
    }

    #[test]
    fn verbatim_mirror_copies_body_under_new_name() {
        let victim = WebPage::new(
            "victim/page",
            "Victim",
            "original popular content here",
            vec![],
        );
        let attack = ScraperAttack::new(666, 3);
        let mirror = attack.mirror_page(&victim, 0, &mut DetRng::new(1));
        assert_eq!(mirror.body, victim.body);
        assert_ne!(mirror.name, victim.name);
        assert!(mirror.name.contains("scraped/666/"));
    }

    #[test]
    fn obfuscated_mirror_rewrites_some_words() {
        let victim = WebPage::new(
            "victim/page",
            "Victim",
            (0..100).map(|i| format!("w{i} ")).collect::<String>(),
            vec![],
        );
        let mut attack = ScraperAttack::new(666, 1);
        attack.obfuscation = 0.3;
        let mirror = attack.mirror_page(&victim, 0, &mut DetRng::new(2));
        assert_ne!(mirror.body, victim.body);
        let shared = mirror
            .body
            .split_whitespace()
            .zip(victim.body.split_whitespace())
            .filter(|(a, b)| a == b)
            .count();
        assert!(shared > 50, "most words should survive obfuscation");
    }
}
