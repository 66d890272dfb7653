// Package domains carries the scan datasets of the paper: the 155 domain
// names in 13 website categories chosen for DNS-response-forgery relevance
// (§3.2), the ground-truth domain whose authoritative name servers the
// measurement team operates, and the 15 top-level domains probed by the
// cache-snooping utilization study (§2.6).
package domains

// Category is one of the paper's 13 website categories.
type Category string

// The 13 categories of §3.2.
const (
	Ads         Category = "Ads"
	Adult       Category = "Adult"
	Alexa       Category = "Alexa"
	Antivirus   Category = "Antivirus"
	Banking     Category = "Banking"
	Dating      Category = "Dating"
	Filesharing Category = "Filesharing"
	Gambling    Category = "Gambling"
	Malware     Category = "Malware"
	MX          Category = "MX"
	NX          Category = "NX"
	Tracking    Category = "Tracking"
	Misc        Category = "Miscellaneous"
)

// AllCategories lists the categories in the paper's order.
var AllCategories = []Category{
	Ads, Adult, Alexa, Antivirus, Banking, Dating, Filesharing,
	Gambling, Malware, MX, NX, Tracking, Misc,
}

// Kind refines how a domain behaves for the simulated authoritative
// hierarchy and the prefilter.
type Kind uint8

// Domain kinds.
const (
	KindOrdinary    Kind = iota // fixed small set of IPs in the owner's ASes
	KindCDN                     // content delivery network: geo-dependent answers across many ASes
	KindNonexistent             // NXDOMAIN upstream
	KindMailHost                // resolves to mail servers with IMAP/POP3/SMTP banners
)

// Domain is one scan-list entry.
type Domain struct {
	Name     string
	Category Category
	Kind     Kind
}

// GroundTruth is the domain the measurement team is authoritative for;
// resolvers that answer it correctly but mangle other domains are the
// interesting population.
const GroundTruth = "gt.dnsstudy.example.edu"

// ScanBase is the domain under which Internet-wide scans encode target
// addresses (prefix.hex-ip.ScanBase).
const ScanBase = "scan.dnsstudy.example.edu"

// SnoopedTLDs are the 15 top-level domains whose NS records the
// utilization study snoops hourly (§2.6).
var SnoopedTLDs = []string{
	"br", "cn", "co.uk", "com", "de", "fr", "in", "info",
	"it", "jp", "net", "nl", "org", "pl", "ru",
}

// IsUpdateHost reports whether name is one of the software-update hosts
// the malware droppers impersonate (Adobe Flash, Java and Windows update
// pages).
func IsUpdateHost(name string) bool {
	switch name {
	case "update.adobe.example", "ardownload.adobe.example",
		"update.oracle.example", "windowsupdate.com", "update.microsoft.com":
		return true
	}
	return false
}

// IsSearchFront reports whether name is one of the search engines whose
// answers ad-injecting resolvers replace with fake search pages.
func IsSearchFront(name string) bool {
	return name == "google.com" || name == "bing.com" || name == "duckduckgo.com"
}

// List is the full 155-domain scan set in 13 categories.
var List = []Domain{
	// Ads: 9 domains associated with ad providers.
	{"ads.doubleclick.example", Ads, KindCDN},
	{"adserver.adtech.example", Ads, KindOrdinary},
	{"pagead.syndication.example", Ads, KindCDN},
	{"banners.openx.example", Ads, KindOrdinary},
	{"cdn.adnxs.example", Ads, KindCDN},
	{"track.zedo.example", Ads, KindOrdinary},
	{"static.criteo.example", Ads, KindCDN},
	{"pixel.rubicon.example", Ads, KindOrdinary},
	{"delivery.pubmatic.example", Ads, KindOrdinary},

	// Adult: 4 domains from the Alexa traffic ranking.
	{"youporn.com", Adult, KindCDN},
	{"adultfinder.com", Adult, KindOrdinary},
	{"xhamster.com", Adult, KindCDN},
	{"redtube.com", Adult, KindCDN},

	// Alexa: the Top-20 ranked domains.
	{"google.com", Alexa, KindCDN},
	{"facebook.com", Alexa, KindCDN},
	{"youtube.com", Alexa, KindCDN},
	{"yahoo.com", Alexa, KindCDN},
	{"baidu.com", Alexa, KindCDN},
	{"wikipedia.org", Alexa, KindCDN},
	{"twitter.com", Alexa, KindCDN},
	{"qq.com", Alexa, KindCDN},
	{"amazon.com", Alexa, KindCDN},
	{"taobao.com", Alexa, KindCDN},
	{"live.com", Alexa, KindCDN},
	{"linkedin.com", Alexa, KindCDN},
	{"sina.com.cn", Alexa, KindCDN},
	{"weibo.com", Alexa, KindCDN},
	{"blogspot.com", Alexa, KindCDN},
	{"vk.com", Alexa, KindCDN},
	{"yandex.ru", Alexa, KindCDN},
	{"ebay.com", Alexa, KindCDN},
	{"instagram.com", Alexa, KindCDN},
	{"bing.com", Alexa, KindCDN},

	// Antivirus: 15 domains of AV web pages and update servers.
	{"update.avast.example", Antivirus, KindCDN},
	{"definitions.symantec.example", Antivirus, KindCDN},
	{"liveupdate.norton.example", Antivirus, KindCDN},
	{"download.mcafee.example", Antivirus, KindCDN},
	{"update.kaspersky.example", Antivirus, KindCDN},
	{"db.eset.example", Antivirus, KindOrdinary},
	{"update.bitdefender.example", Antivirus, KindOrdinary},
	{"sigs.trendmicro.example", Antivirus, KindCDN},
	{"cloud.avira.example", Antivirus, KindOrdinary},
	{"update.fsecure.example", Antivirus, KindOrdinary},
	{"update.drweb.example", Antivirus, KindOrdinary},
	{"update.sophos.example", Antivirus, KindOrdinary},
	{"patterns.panda.example", Antivirus, KindOrdinary},
	{"defs.clamav.example", Antivirus, KindCDN},
	{"update.malwarebytes.example", Antivirus, KindCDN},

	// Banking: 20 domains of banking and payment websites.
	{"paypal.com", Banking, KindCDN},
	{"alipay.com", Banking, KindCDN},
	{"ebanking.ebay.com", Banking, KindCDN},
	{"chase.com", Banking, KindOrdinary},
	{"bankofamerica.com", Banking, KindOrdinary},
	{"wellsfargo.com", Banking, KindOrdinary},
	{"citibank.com", Banking, KindOrdinary},
	{"hsbc.com", Banking, KindOrdinary},
	{"barclays.co.uk", Banking, KindOrdinary},
	{"deutsche-bank.de", Banking, KindOrdinary},
	{"santander.com", Banking, KindOrdinary},
	{"bnpparibas.fr", Banking, KindOrdinary},
	{"unicredit.it", Banking, KindOrdinary},
	{"intesasanpaolo.it", Banking, KindOrdinary}, // mimicked by the two phishing hosts of §4.3
	{"sberbank.ru", Banking, KindOrdinary},
	{"icbc.com.cn", Banking, KindOrdinary},
	{"itau.com.br", Banking, KindOrdinary},
	{"bbva.es", Banking, KindOrdinary},
	{"ing.nl", Banking, KindOrdinary},
	{"visa.com", Banking, KindCDN},

	// Dating: 3 domains of dating sites.
	{"match.com", Dating, KindCDN},
	{"okcupid.com", Dating, KindOrdinary},
	{"plentyoffish.com", Dating, KindOrdinary},

	// Filesharing: 5 domains of file-sharing websites.
	{"kickass.to", Filesharing, KindOrdinary},
	{"thepiratebay.se", Filesharing, KindOrdinary},
	{"torrentz.eu", Filesharing, KindOrdinary},
	{"rapidgator.net", Filesharing, KindCDN},
	{"uploaded.net", Filesharing, KindCDN},

	// Gambling: 4 online betting and gambling domains.
	{"bet-at-home.com", Gambling, KindOrdinary},
	{"pokerstars.com", Gambling, KindOrdinary},
	{"bet365.com", Gambling, KindCDN},
	{"888casino.com", Gambling, KindOrdinary},

	// Malware: 13 domains listed by common malware blacklists.
	{"irc.zief.pl", Malware, KindOrdinary}, // Virut C&C (named in §4.2)
	{"c2.palevotracker.example", Malware, KindOrdinary},
	{"drop.zeustracker.example", Malware, KindOrdinary},
	{"cn-loader.wicked.example.cn", Malware, KindOrdinary}, // parked Chinese domain 1
	{"cn-seller.wicked.example.cn", Malware, KindOrdinary}, // parked Chinese domain 2
	{"pony.gate.example", Malware, KindOrdinary},
	{"feodo.c2.example", Malware, KindOrdinary},
	{"citadel.panel.example", Malware, KindOrdinary},
	{"andromeda.bot.example", Malware, KindOrdinary},
	{"cutwail.spam.example", Malware, KindOrdinary},
	{"torproject.org", Malware, KindCDN}, // blacklisted by some lists; parked per §4.2
	{"ramnit.sinkhole.example", Malware, KindOrdinary},
	{"conficker.c.example", Malware, KindOrdinary},

	// MX: 13 hostnames of IMAP/POP3/SMTP servers of 6 mail providers.
	{"imap.aim.com", MX, KindMailHost},
	{"smtp.aim.com", MX, KindMailHost},
	{"imap.gmail.com", MX, KindMailHost},
	{"pop.gmail.com", MX, KindMailHost},
	{"smtp.gmail.com", MX, KindMailHost},
	{"imap.mail.me.com", MX, KindMailHost},
	{"smtp.mail.me.com", MX, KindMailHost},
	{"imap-mail.outlook.com", MX, KindMailHost},
	{"smtp-mail.outlook.com", MX, KindMailHost},
	{"imap.mail.yahoo.com", MX, KindMailHost},
	{"smtp.mail.yahoo.com", MX, KindMailHost},
	{"imap.yandex.com", MX, KindMailHost},
	{"smtp.yandex.com", MX, KindMailHost},

	// NX: 8 nonexistent names, 5 NX subdomains of popular domains, and
	// 8 misspellings.
	{"rqzzkifu.example", NX, KindNonexistent},
	{"nxqqtest7.example", NX, KindNonexistent},
	{"doesnotexist-31337.example", NX, KindNonexistent},
	{"zzqmwnbv.example", NX, KindNonexistent},
	{"unregistered-a8k2.example", NX, KindNonexistent},
	{"nosuchdomain-x1.example", NX, KindNonexistent},
	{"blankzone-42.example", NX, KindNonexistent},
	{"emptyname-q9.example", NX, KindNonexistent},
	{"rswkllf.twitter.com", NX, KindNonexistent},
	{"qmxtknn.facebook.com", NX, KindNonexistent},
	{"zzpqjwd.google.com", NX, KindNonexistent},
	{"xkwquzn.amazon.com", NX, KindNonexistent},
	{"xskkjqz.wikipedia.org", NX, KindNonexistent},
	{"amason.com", NX, KindNonexistent},
	{"ghoogle.com", NX, KindNonexistent},
	{"wikipeida.org", NX, KindNonexistent},
	{"facebok.com", NX, KindNonexistent},
	{"twiter.com", NX, KindNonexistent},
	{"youtub.com", NX, KindNonexistent},
	{"payapl.com", NX, KindNonexistent},
	{"ebayy.com", NX, KindNonexistent},

	// Tracking: 5 domains of user-tracking libraries.
	{"cdn.bluecava.com", Tracking, KindCDN},
	{"tags.bluecava.com", Tracking, KindOrdinary},
	{"h.online-metrix.net", Tracking, KindCDN}, // ThreatMetrix
	{"js.threatmetrix.example", Tracking, KindOrdinary},
	{"beacon.tracksimple.example", Tracking, KindOrdinary},

	// Miscellaneous: update servers, intelligence agencies, OAuth
	// endpoints, and individual pages.
	{"update.adobe.example", Misc, KindCDN},
	{"ardownload.adobe.example", Misc, KindCDN},
	{"update.microsoft.com", Misc, KindCDN},
	{"windowsupdate.com", Misc, KindCDN},
	{"swcdn.apple.com", Misc, KindCDN},
	{"update.oracle.example", Misc, KindCDN},
	{"nsa.gov", Misc, KindOrdinary},
	{"gchq.gov.uk", Misc, KindOrdinary},
	{"mossad.gov.il", Misc, KindOrdinary},
	{"oauth.amazon.com", Misc, KindCDN},
	{"accounts.google.com", Misc, KindCDN},
	{"api.twitter.com", Misc, KindCDN},
	{"rotten.com", Misc, KindOrdinary},
	{"wikileaks.org", Misc, KindCDN},
	{"archive.org", Misc, KindOrdinary},
	{"pastebin.com", Misc, KindCDN},
	{"4chan.org", Misc, KindCDN},
	{"reddit.com", Misc, KindCDN},
	{"imgur.com", Misc, KindCDN},
	{"stackexchange.com", Misc, KindCDN},
	{"craigslist.org", Misc, KindOrdinary},
	{"duckduckgo.com", Misc, KindCDN},
	{"openstreetmap.org", Misc, KindOrdinary},
}

// ByCategory returns the scan set of a single category.
func ByCategory(cat Category) []Domain {
	var out []Domain
	for _, d := range List {
		if d.Category == cat {
			out = append(out, d)
		}
	}
	return out
}

// byName indexes List for the per-query lookup the resolver answer path
// performs, by position; first entry wins, matching the linear scan it
// replaces.
var byName = func() map[string]int {
	m := make(map[string]int, len(List))
	for i, d := range List {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = i
		}
	}
	return m
}()

// ByName returns the list entry with the given name and whether it exists.
func ByName(name string) (Domain, bool) {
	if i, ok := byName[name]; ok {
		return List[i], true
	}
	return Domain{}, false
}

// IndexBytes returns the List position of the entry with the given name,
// held as bytes as a wire decoder holds it; the lookup does not allocate.
func IndexBytes(name []byte) (int, bool) {
	i, ok := byName[string(name)]
	return i, ok
}

// Names returns all scan-list names in order.
func Names() []string {
	out := make([]string, len(List))
	for i, d := range List {
		out[i] = d.Name
	}
	return out
}
