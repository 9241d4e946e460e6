package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.spatial.Spatial
import repro.text.Text

/** The paper's enrichment UDFs as declarative DataFrame transforms — the
  * SQL++ UDF analogs. Each function takes the tweet batch plus a [[Refs]]
  * snapshot and returns the batch with enrichment columns appended
  * (`SELECT t.*, <enrichment>`), exactly the shape of the paper's
  * `CREATE FUNCTION enrichTweetQn`.
  *
  * List-valued enrichments (largest religions, nearby monuments, …) are
  * emitted as deterministically ordered comma-joined strings so results are
  * scalar-comparable against the DuckDB oracle; empty lists become "".
  *
  * Join strategy: an enrichment decided by a key of the tweet joins the
  * batch once, on that key, against a reference-derived side, and every
  * country-keyed side is broadcast with an explicit `broadcast(...)` hint,
  * so the batch is never shuffled and the reference side is built once per
  * computing job instead of being re-partitioned:
  *  - [[tweetSafetyCheck]] broadcasts the per-country word sets;
  *  - [[highRiskTweetCheck]] broadcasts the top-10 country list;
  *  - [[safetyRating]] broadcasts SafetyRatings;
  *  - [[religiousPopulation]] broadcasts the per-country population sums;
  *  - [[largestReligions]] broadcasts the per-country top-3 strings.
  * The choice is made per query, inside the computing job, rather than
  * through the session's `spark.sql.autoBroadcastJoinThreshold`, which the
  * test and benchmark sessions leave at -1: the reference side of these
  * UDFs is small by construction, so the strategy belongs to the UDF and
  * must not change with a session setting. The computing job frees each
  * batch's broadcasts when it completes ([[JobExecution]]).
  * A broadcast side derived from reference data by a group-by or window —
  * the word sets of [[tweetSafetyCheck]], the sums of
  * [[religiousPopulation]], the top-3 window of [[largestReligions]] and
  * the top-10 of [[highRiskTweetCheck]] — is computed in one partition
  * ([[inOnePartition]]): one partition already satisfies the clustering the
  * window and the aggregate require, so no exchange is planned, and the
  * reference data is small enough that one task derives it faster than a
  * shuffle over the session's partitions.
  * [[tweetContext]] broadcasts only DistrictAreas, for its band join, and
  * joins its per-district sides on the district the band join found. The
  * other joins of the complex UDFs (Suspicious Names, Tweet Context's
  * per-district sides, Worrisome Tweets), the spatial grid joins
  * (`Spatial.gridJoin`) and the Fuzzy Suspects similarity join keep the
  * planner's default strategy: no measurement shows a gain from
  * broadcasting them.
  *
  * Note on Largest Religions: the paper's Figure 34 writes
  * `ORDER BY r.population LIMIT 3`, which as written selects the three
  * *smallest* religions; we follow the use case's stated intent ("three
  * largest") and order descending, tie-broken by religion name.
  */
object Enrichments {

  private val edUdf = udf((a: String, b: String) => Text.editDistance(a, b))
  private val rsUdf = udf((s: String) => Text.removeSpecial(s))

  /** Rank-ordered list → "v1,v2,…" where `items` is a collect_list of
    * struct(rank, value); array_sort orders by rank (then value).
    */
  private def rankedConcat(items: Column): Column =
    array_join(transform(array_sort(items), x => x("value")), ",")

  /** `ref` coalesced to one partition, for a broadcast side derived from
    * reference data: the group-by or window above it then needs no
    * exchange, whatever `spark.sql.shuffle.partitions` is.
    */
  private def inOnePartition(ref: DataFrame): DataFrame = ref.coalesce(1)

  private def leftEnrich(tweets: DataFrame, perId: DataFrame,
                         fills: Map[String, Column] = Map.empty): DataFrame = {
    val joined = tweets.join(perId, Seq("id"), "left")
    fills.foldLeft(joined) { case (df, (c, fill)) =>
      df.withColumn(c, coalesce(col(c), fill))
    }
  }

  /** UDF 1 (Figure 6) — stateless safety check: US tweets containing
    * "bomb" are flagged Red.
    */
  def usTweetSafetyCheck(tweets: DataFrame): DataFrame =
    tweets.withColumn("safety_check_flag",
      when(col("country") === "US" && col("text").contains("bomb"), "Red")
        .otherwise("Green"))

  /** UDF 2 (Figure 8) — stateful safety check: a tweet is Red if its
    * country has a sensitive word contained in the tweet text.
    */
  def tweetSafetyCheck(tweets: DataFrame, refs: Refs): DataFrame = {
    val words = broadcast(inOnePartition(refs.sensitiveWords)
      .groupBy(col("country") as "sw_country")
      .agg(collect_set(col("word")) as "__words"))
    tweets
      .join(words, col("country") === col("sw_country"), "left")
      .withColumn("safety_check_flag",
        when(exists(col("__words"), w => instr(col("text"), w) > 0), "Red").otherwise("Green"))
      .drop("sw_country", "__words")
  }

  /** Figure 18 — nested-subquery UDF: Red if the tweet's country is among
    * the 10 countries with the most sensitive keywords (ties broken by
    * country code for determinism).
    */
  def highRiskTweetCheck(tweets: DataFrame, refs: Refs): DataFrame = {
    val top10 = broadcast(inOnePartition(refs.sensitiveWords)
      .groupBy(col("country") as "sw_country")
      .agg(count(lit(1)) as "cnt")
      .orderBy(desc("cnt"), asc("sw_country"))
      .limit(10)
      .select(col("sw_country")))
    tweets
      .join(top10, col("country") === col("sw_country"), "left")
      .withColumn("high_risk_flag", when(col("sw_country").isNotNull, "Red").otherwise("Green"))
      .drop("sw_country")
  }

  /** Use case 1 (Appendix A) — Safety Rating: hash join on country code. */
  def safetyRating(tweets: DataFrame, refs: Refs): DataFrame =
    tweets
      .join(broadcast(refs.safetyRatings), col("country") === col("country_code"), "left")
      .drop("country_code")

  /** Use case 2 (Appendix B) — Religious Population: group-by sum joined on
    * country.
    */
  def religiousPopulation(tweets: DataFrame, refs: Refs): DataFrame = {
    val pops = broadcast(inOnePartition(refs.religiousPopulations)
      .groupBy(col("country_name"))
      .agg(sum(col("population")) as "religious_population"))
    tweets
      .join(pops, col("country") === col("country_name"), "left")
      .drop("country_name")
  }

  /** Use case 3 (Appendix C) — Largest Religions: top-3 religions per
    * country, emitted as an ordered comma-joined string.
    */
  def largestReligions(tweets: DataFrame, refs: Refs): DataFrame = {
    val w = Window.partitionBy(col("country_name"))
      .orderBy(desc("population"), asc("religion_name"))
    val top3 = broadcast(inOnePartition(refs.religiousPopulations)
      .withColumn("__rank", row_number().over(w))
      .where(col("__rank") <= 3)
      .groupBy(col("country_name"))
      .agg(rankedConcat(collect_list(struct(col("__rank") as "rank", col("religion_name") as "value")))
        as "largest_religions"))
    tweets
      .join(top3, col("country") === col("country_name"), "left")
      .drop("country_name")
      .withColumn("largest_religions", coalesce(col("largest_religions"), lit("")))
  }

  /** Use case 4 (Appendix D) — Fuzzy Suspects: similarity join; suspects
    * whose name is within edit distance < 5 of the cleaned screen name.
    * Result: "name:religion" pairs sorted lexicographically.
    */
  def fuzzySuspects(tweets: DataFrame, refs: Refs): DataFrame = {
    val cleaned = tweets.select(col("id"), rsUdf(col("screen_name")) as "__clean")
    val sus = refs.suspects.select(col("sensitive_name"), col("religion_name") as "__srel")
    val matches = cleaned
      .crossJoin(sus)
      .where(edUdf(col("__clean"), col("sensitive_name")) < 5)
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("sensitive_name"), col("__srel")))), ",")
        as "related_suspects")
    leftEnrich(tweets, matches, Map("related_suspects" -> lit("")))
  }

  /** Use case 5 (Appendix E) — Nearby Monuments: monuments within 1.5
    * degrees of the tweet location. `indexed = true` uses the grid-index
    * join (the paper's R-Tree index nested-loop join); `false` is the
    * hint-forced naive join ("Naive Nearby Monuments", §7.4.2).
    */
  def nearbyMonuments(tweets: DataFrame, refs: Refs, indexed: Boolean = true): DataFrame = {
    val probe = tweets.select(col("id"), col("latitude"), col("longitude"))
    val join =
      if (indexed) Spatial.gridJoin(probe, "latitude", "longitude",
        refs.monuments, "monument_x", "monument_y", 1.5)
      else Spatial.naiveJoin(probe, "latitude", "longitude",
        refs.monuments, "monument_x", "monument_y", 1.5)
    val agg = join
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(col("monument_id"))), ",") as "nearby_monuments")
    leftEnrich(tweets, agg, Map("nearby_monuments" -> lit("")))
  }

  /** Use case 6 (Appendix F) — Suspicious Names: nearby facility counts by
    * type, the 3 closest religious buildings within 3 degrees, and suspects
    * sharing the author's name.
    */
  def suspiciousNames(tweets: DataFrame, refs: Refs): DataFrame = {
    val probe = tweets.select(col("id"), col("latitude"), col("longitude"), col("user_name"))

    val facAgg = Spatial.gridJoin(probe, "latitude", "longitude",
        refs.facilities, "facility_x", "facility_y", 3.0)
      .groupBy(col("id"), col("facility_type"))
      .agg(count(lit(1)) as "cnt")
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("facility_type"), col("cnt")))), ",")
        as "nearby_facilities")

    val nearBuildings = Spatial.gridJoin(probe, "latitude", "longitude",
        refs.religiousBuildings, "building_x", "building_y", 3.0)
      .withColumn("__dist",
        Spatial.distCol(col("latitude"), col("longitude"), col("building_x"), col("building_y")))
    val w = Window.partitionBy(col("id")).orderBy(asc("__dist"), asc("religious_building_id"))
    val bldAgg = nearBuildings
      .withColumn("__rank", row_number().over(w))
      .where(col("__rank") <= 3)
      .groupBy(col("id"))
      .agg(rankedConcat(collect_list(struct(col("__rank") as "rank",
        concat_ws(":", col("religious_building_id"), col("religion_name")) as "value")))
        as "nearby_religious_buildings")

    val susAgg = probe
      .join(refs.sensitiveNames, col("user_name") === col("sensitive_name"))
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":",
        col("suspect_id"), col("religion_name"), col("threat_level")))), ",")
        as "suspicious_users_info")

    leftEnrich(leftEnrich(leftEnrich(tweets, facAgg), bldAgg), susAgg, Map(
      "nearby_facilities" -> lit(""),
      "nearby_religious_buildings" -> lit(""),
      "suspicious_users_info" -> lit("")))
  }

  /** Use case 7 (Appendix G) — Tweet Context: district average income,
    * facility counts per district, and ethnicity distribution of district
    * residents. The batch is band-joined to its district, then joined on
    * the district to each per-district side. The reference-to-reference
    * spatial joins (facilities × districts, residents × districts) are
    * re-evaluated per computing-job invocation — the dominant cost the
    * paper observes for this UDF. The tiny district table is explicitly
    * broadcast (the only viable plan for a band-join).
    */
  def tweetContext(tweets: DataFrame, refs: Refs): DataFrame = {
    val dist = broadcast(refs.districts)
    def inDistrict(x: String, y: String): Column =
      Spatial.inRectCol(col(x), col(y), col("x_min"), col("y_min"), col("x_max"), col("y_max"))
    // Per district, the sorted "<kind>:<count>" list of the `ref` points in it.
    def countsByDistrict(ref: DataFrame, x: String, y: String, kind: String, name: String): DataFrame =
      ref.join(dist, inDistrict(x, y))
        .groupBy(col("district_area_id"), col(kind))
        .agg(count(lit(1)) as "cnt")
        .groupBy(col("district_area_id"))
        .agg(array_join(array_sort(collect_list(concat_ws(":", col(kind), col("cnt")))), ",") as name)

    val incomes = refs.averageIncomes.select(col("district_area_id"), col("average_income") as "area_avg_income")
    val facilities = countsByDistrict(refs.facilities, "facility_x", "facility_y", "facility_type", "area_facilities")
    val ethnicities = countsByDistrict(refs.residents, "x", "y", "ethnicity", "ethnicity_dist")
    tweets
      .join(dist, inDistrict("latitude", "longitude"), "left")
      .join(incomes, Seq("district_area_id"), "left")
      .join(facilities, Seq("district_area_id"), "left")
      .join(ethnicities, Seq("district_area_id"), "left")
      .drop("district_area_id", "x_min", "y_min", "x_max", "y_max")
      .withColumn("area_facilities", coalesce(col("area_facilities"), lit("")))
      .withColumn("ethnicity_dist", coalesce(col("ethnicity_dist"), lit("")))
  }

  /** Use case 8 (Appendix H) — Worrisome Tweets: religions of buildings
    * within 3 degrees, with the count of attacks on that religion in the
    * two months before the tweet. Counts follow the paper's SQL++ exactly:
    * the group-by counts (building × attack) join rows, so multiple nearby
    * buildings of one religion multiply that religion's attack count.
    */
  def worrisomeTweets(tweets: DataFrame, refs: Refs): DataFrame = {
    val probe = tweets.select(col("id"), col("latitude"), col("longitude"), col("created_at"))
    val near = Spatial.gridJoin(probe, "latitude", "longitude",
      refs.religiousBuildings, "building_x", "building_y", 3.0)
    val agg = near
      .join(refs.attackEvents, col("religion_name") === col("related_religion"))
      .where(col("created_at") > col("attack_datetime") &&
        col("created_at") < col("attack_datetime") + expr("INTERVAL 2 MONTHS"))
      .groupBy(col("id"), col("religion_name"))
      .agg(count(col("attack_record_id")) as "attack_num")
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("religion_name"), col("attack_num")))), ",")
        as "nearby_religious_attacks")
    leftEnrich(tweets, agg, Map("nearby_religious_attacks" -> lit("")))
  }

  /** Registry used by the framework, jobs, and benches. Names follow the
    * paper's use-case numbering.
    */
  val byName: Map[String, (DataFrame, Refs) => DataFrame] = Map(
    "us_safety_check" -> ((t, _) => usTweetSafetyCheck(t)),
    "tweet_safety_check" -> (tweetSafetyCheck(_, _)),
    "high_risk_check" -> (highRiskTweetCheck(_, _)),
    "safety_rating" -> (safetyRating(_, _)),
    "religious_population" -> (religiousPopulation(_, _)),
    "largest_religions" -> (largestReligions(_, _)),
    "fuzzy_suspects" -> (fuzzySuspects(_, _)),
    "nearby_monuments" -> ((t, r) => nearbyMonuments(t, r, indexed = true)),
    "naive_nearby_monuments" -> ((t, r) => nearbyMonuments(t, r, indexed = false)),
    "suspicious_names" -> (suspiciousNames(_, _)),
    "tweet_context" -> (tweetContext(_, _)),
    "worrisome_tweets" -> (worrisomeTweets(_, _)))
}
