//! Token consumption rates by age group, language, and mode (Figure 1).
//!
//! The paper derives these from NIH reading-speed measurements combined with
//! OpenAI's published tokens-per-word statistics. We encode the figure's
//! data: reading peaks around 6–7.5 tokens/s for young adults and falls off
//! for children and seniors; listening sits near natural speech rate
//! (~150 wpm) and varies much less with age. Chinese text tokenises into
//! more tokens per unit of meaning, so its token rates run higher; Japanese
//! runs slightly below English for reading.

/// Reader/listener age brackets used in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeGroup {
    /// Under 12.
    Under12,
    /// 12–13.
    From12To13,
    /// 14–15.
    From14To15,
    /// 16–17.
    From16To17,
    /// 18–25.
    From18To25,
    /// 26–45.
    From26To45,
    /// 46–60.
    From46To60,
    /// Over 60.
    Over60,
}

impl AgeGroup {
    /// All groups in figure order.
    pub const ALL: [AgeGroup; 8] = [
        AgeGroup::Under12,
        AgeGroup::From12To13,
        AgeGroup::From14To15,
        AgeGroup::From16To17,
        AgeGroup::From18To25,
        AgeGroup::From26To45,
        AgeGroup::From46To60,
        AgeGroup::Over60,
    ];

    /// Figure label, e.g. `"18-25"`.
    pub fn label(self) -> &'static str {
        match self {
            AgeGroup::Under12 => "12-",
            AgeGroup::From12To13 => "12-13",
            AgeGroup::From14To15 => "14-15",
            AgeGroup::From16To17 => "16-17",
            AgeGroup::From18To25 => "18-25",
            AgeGroup::From26To45 => "26-45",
            AgeGroup::From46To60 => "46-60",
            AgeGroup::Over60 => "60+",
        }
    }

    fn index(self) -> usize {
        match self {
            AgeGroup::Under12 => 0,
            AgeGroup::From12To13 => 1,
            AgeGroup::From14To15 => 2,
            AgeGroup::From16To17 => 3,
            AgeGroup::From18To25 => 4,
            AgeGroup::From26To45 => 5,
            AgeGroup::From46To60 => 6,
            AgeGroup::Over60 => 7,
        }
    }
}

/// Languages covered by Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// English.
    English,
    /// Chinese.
    Chinese,
    /// Japanese.
    Japanese,
}

impl Language {
    /// All languages in figure order.
    pub const ALL: [Language; 3] = [Language::English, Language::Chinese, Language::Japanese];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Language::English => "English",
            Language::Chinese => "Chinese",
            Language::Japanese => "Japanese",
        }
    }
}

/// How the user consumes tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsumptionMode {
    /// Reading on screen.
    Reading,
    /// Listening to synthesised speech (e.g. voice assistants, captioning).
    Listening,
}

// Rows: English, Chinese, Japanese. Columns: the eight age groups.
const READING: [[f64; 8]; 3] = [
    [2.9, 3.8, 4.5, 5.2, 6.5, 6.2, 5.0, 3.9],
    [3.3, 4.4, 5.2, 6.0, 7.5, 7.1, 5.8, 4.5],
    [2.6, 3.4, 4.1, 4.7, 5.9, 5.6, 4.5, 3.5],
];

const LISTENING: [[f64; 8]; 3] = [
    [2.8, 3.0, 3.2, 3.3, 3.4, 3.3, 3.1, 2.8],
    [3.3, 3.6, 3.8, 4.0, 4.1, 4.0, 3.7, 3.4],
    [3.0, 3.3, 3.5, 3.6, 3.7, 3.6, 3.4, 3.1],
];

/// Token consumption rate in tokens/second for the given demographic.
pub fn consumption_rate(mode: ConsumptionMode, language: Language, age: AgeGroup) -> f64 {
    let table = match mode {
        ConsumptionMode::Reading => &READING,
        ConsumptionMode::Listening => &LISTENING,
    };
    let row = match language {
        Language::English => 0,
        Language::Chinese => 1,
        Language::Japanese => 2,
    };
    table[row][age.index()]
}

/// The empirical fluency threshold: generation below 12 tokens/s is
/// perceived as interrupted reading (§2.2).
pub const READING_FLUENCY_THRESHOLD: f64 = 12.0;

/// The empirical engagement threshold: first-token delays beyond 1.3 s hurt
/// engagement (§2.2).
pub const TTFT_TOLERANCE_SECS: f64 = 1.3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rates_positive_and_below_fluency_threshold() {
        for mode in [ConsumptionMode::Reading, ConsumptionMode::Listening] {
            for lang in Language::ALL {
                for age in AgeGroup::ALL {
                    let r = consumption_rate(mode, lang, age);
                    assert!(r > 0.0 && r < READING_FLUENCY_THRESHOLD);
                }
            }
        }
    }

    #[test]
    fn young_adults_read_fastest() {
        for lang in Language::ALL {
            let peak = consumption_rate(ConsumptionMode::Reading, lang, AgeGroup::From18To25);
            for age in AgeGroup::ALL {
                assert!(consumption_rate(ConsumptionMode::Reading, lang, age) <= peak);
            }
        }
    }

    #[test]
    fn reading_varies_more_than_listening() {
        let spread = |mode| {
            Language::ALL
                .iter()
                .flat_map(|&l| {
                    AgeGroup::ALL
                        .iter()
                        .map(move |&a| consumption_rate(mode, l, a))
                })
                .fold((f64::MAX, f64::MIN), |(lo, hi), r| (lo.min(r), hi.max(r)))
        };
        let (rlo, rhi) = spread(ConsumptionMode::Reading);
        let (llo, lhi) = spread(ConsumptionMode::Listening);
        assert!((rhi - rlo) > (lhi - llo));
    }

    #[test]
    fn chinese_token_rates_run_higher() {
        for age in AgeGroup::ALL {
            let en = consumption_rate(ConsumptionMode::Reading, Language::English, age);
            let zh = consumption_rate(ConsumptionMode::Reading, Language::Chinese, age);
            assert!(zh > en);
        }
    }

    #[test]
    fn labels_match_figure() {
        assert_eq!(AgeGroup::Under12.label(), "12-");
        assert_eq!(AgeGroup::Over60.label(), "60+");
        assert_eq!(Language::Chinese.label(), "Chinese");
    }
}
