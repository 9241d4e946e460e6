package repro.core

import org.apache.spark.sql.DataFrame

import repro.{SparkSpec, TestRefs}
import repro.data.{SafetyRating, SensitiveWord, TweetData}

/** Predeployed ([[ComputingJob]]) vs. ad-hoc computing jobs: identical
  * results and parameter rebinding across invocations; and, for every
  * enrichment in both refresh modes, a job built before a reference upsert
  * reads the references its mode prescribes.
  */
class PredeployedJobSpec extends SparkSpec {

  private lazy val stores = TestRefs.small(spark)

  private def rows(df: DataFrame, cols: String*): Seq[String] =
    df.select(cols.head, cols.tail: _*).orderBy("id").collect().map(_.toString).toSeq

  test("predeployed and ad-hoc jobs return identical rows") {
    val batch = TweetData.tweets(spark, 80)
    val pre = ComputingJob(SqlEnrichment("safety_rating"), Dynamic, stores)
    val ad = PredeployedJob.adhoc(spark, "safety_rating", () => stores.snapshot)
    assert(rows(pre(batch), "id", "safety_rating") == rows(ad(batch), "id", "safety_rating"))
  }

  test("predeployed and ad-hoc agree for the group-by enrichment too") {
    val batch = TweetData.tweets(spark, 60)
    val pre = ComputingJob(SqlEnrichment("religious_population"), Dynamic, stores)
    val ad = PredeployedJob.adhoc(spark, "religious_population", () => stores.snapshot)
    assert(rows(pre(batch), "id", "religious_population") == rows(ad(batch), "id", "religious_population"))
  }

  test("a predeployed job rebinds parameters: different batches give different results") {
    val pre = ComputingJob(SqlEnrichment("safety_rating"), Dynamic, stores)
    val a = pre(TweetData.tweets(spark, 10, seed = 1)).select("id").collect().map(_.getLong(0)).toSet
    val b = pre(TweetData.tweets(spark, 20, seed = 2)).select("id").collect().map(_.getLong(0)).toSet
    assert(a.size == 10 && b.size == 20)
  }

  test("a predeployed job picks up reference snapshots through its provider") {
    val local = TestRefs.small(spark)
    val pre = ComputingJob(SqlEnrichment("safety_rating"), Dynamic, local)
    val batch = TweetData.tweets(spark, 30)
    pre(batch).count()
    local.safetyRatings.upsertProducts(TweetData.countries.map(SafetyRating(_, "REBOUND")))
    val ratings = pre(batch).select("safety_rating").collect().map(_.getString(0)).toSet
    assert(ratings == Set("REBOUND"))
  }

  test("ad-hoc path rejects enrichments without SQL text") {
    intercept[IllegalArgumentException] {
      PredeployedJob.adhoc(spark, "tweet_context", () => stores.snapshot)
    }
  }

  private val specs: Seq[(EnrichmentSpec, (DataFrame, Refs) => DataFrame)] =
    Enrichments.byName.toSeq.sortBy(_._1).map { case (n, f) => SqlEnrichment(n) -> f } ++
      JavaUdfs.supported.toSeq.sorted.map(n =>
        JavaEnrichment(n) -> ((batch: DataFrame, refs: Refs) => JavaUdfs.compile(n, refs)(batch)))

  for ((spec, direct) <- specs; mode <- Seq(Dynamic, Static))
    test(s"$spec in $mode mode reads the references its mode prescribes") {
      val local = TestRefs.small(spark)
      val job = ComputingJob(spec, mode, local)
      // Overwrite every store with a differently seeded copy of its rows, and
      // give every country every sensitive keyword, so that each enrichment
      // reading reference data changes its output.
      for ((store, other) <- local.all.zip(TestRefs.small(spark, seed = 1).all))
        store.upsert(other.staticSnapshot.collect().toSeq)
      local.sensitiveWords.upsertProducts(for (c <- TweetData.countries; w <- TweetData.sensitivePool)
        yield SensitiveWord(s"all-$c-$w", c, w))
      val batch = TweetData.tweets(spark, 100)
      val refs = if (mode == Dynamic) local.snapshot else local.staticRefs
      assert(job(batch).collect().map(_.toString).sorted.toSeq ==
        direct(batch, refs).collect().map(_.toString).sorted.toSeq)
    }
}
