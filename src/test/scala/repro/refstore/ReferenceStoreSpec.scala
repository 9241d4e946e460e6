package repro.refstore

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.{In, InSet}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

import repro.{Oracle, SparkSpec, TestRefs}
import repro.core.{Enrichments, JobExecution}
import repro.data.{ReligiousPopulation, SafetyRating, TweetData}

/** UPSERT/snapshot semantics of the LSM-analog reference store. */
class ReferenceStoreSpec extends SparkSpec {

  private def freshStore(n: Int = 50): ReferenceStore =
    ReferenceStore(spark, "SafetyRatings",
      TweetData.safetyRatings(spark, n), "country_code")

  test("initial snapshot equals the base data") {
    val s = freshStore(40)
    assert(s.snapshot().count() == 40)
    assert(s.version == 0)
    assert(s.deltaSize == 0)
  }

  test("zero-delta snapshot returns the base plan (fast path)") {
    val s = freshStore()
    assert(s.snapshot() eq s.staticSnapshot)
  }

  test("upsert of a new key inserts") {
    val s = freshStore(10)
    s.upsertProducts(Seq(SafetyRating("ZZ", "A")))
    assert(s.snapshot().count() == 11)
    assert(s.version == 1)
  }

  test("upsert of an existing key replaces") {
    val s = freshStore(10)
    val firstKey = s.staticSnapshot.select("country_code").head().getString(0)
    s.upsertProducts(Seq(SafetyRating(firstKey, "ZNEW")))
    val snap = s.snapshot()
    assert(snap.count() == 10)
    val updated = snap.where(s"country_code = '$firstKey'").select("safety_rating").head().getString(0)
    assert(updated == "ZNEW")
  }

  test("last writer wins within the delta") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("QQ", "A")))
    s.upsertProducts(Seq(SafetyRating("QQ", "B")))
    val v = s.snapshot().where("country_code = 'QQ'").select("safety_rating").head().getString(0)
    assert(v == "B")
    assert(s.deltaSize == 1)
  }

  test("version increments per upsert call") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("A1", "A")))
    s.upsertProducts(Seq(SafetyRating("A2", "A"), SafetyRating("A3", "A")))
    assert(s.version == 2)
  }

  test("snapshot is cached per version") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("B1", "A")))
    assert(s.snapshot() eq s.snapshot())
  }

  test("snapshot changes identity after an upsert") {
    val s = freshStore(5)
    val s1 = s.snapshot()
    s.upsertProducts(Seq(SafetyRating("C1", "A")))
    assert(!(s.snapshot() eq s1))
  }

  test("staticSnapshot never sees updates") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("D1", "A")))
    assert(s.staticSnapshot.count() == 5)
    assert(s.snapshot().count() == 6)
  }

  test("an earlier snapshot plan is immune to later upserts") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("E1", "A")))
    val snapAfterFirst = s.snapshot()
    s.upsertProducts(Seq(SafetyRating("E2", "A")))
    assert(snapAfterFirst.count() == 6)
    assert(s.snapshot().count() == 7)
  }

  test("upsert rejects rows of wrong arity") {
    val s = freshStore(5)
    intercept[IllegalArgumentException] { s.upsert(Seq(Row("only-one-field"))) }
  }

  test("bulk upsert of 500 rows merges correctly") {
    val s = freshStore(100)
    val fresh = (0 until 500).map(i => SafetyRating(f"NEW$i%03d", "Z"))
    s.upsertProducts(fresh)
    assert(s.snapshot().count() == 600)
    assert(s.snapshot().where("safety_rating = 'Z'").count() == 500)
  }

  test("concurrent upserts from two threads all land") {
    val s = freshStore(10)
    val t1 = new Thread(() => (0 until 50).foreach(i => s.upsertProducts(Seq(SafetyRating(f"T1$i%03d", "A")))))
    val t2 = new Thread(() => (0 until 50).foreach(i => s.upsertProducts(Seq(SafetyRating(f"T2$i%03d", "B")))))
    t1.start(); t2.start(); t1.join(); t2.join()
    assert(s.snapshot().count() == 110)
    assert(s.version == 100)
  }

  test("snapshot reads are safe while an updater thread runs") {
    val s = freshStore(20)
    @volatile var failure: Option[Throwable] = None
    val updater = new Thread(() =>
      try (0 until 30).foreach { i =>
        s.upsertProducts(Seq(SafetyRating(f"U$i%03d", "A")))
        Thread.sleep(1)
      } catch { case t: Throwable => failure = Some(t) })
    updater.start()
    (0 until 10).foreach { _ =>
      val c = s.snapshot().count()
      assert(c >= 20 && c <= 50)
    }
    updater.join()
    assert(failure.isEmpty)
    assert(s.snapshot().count() == 50)
  }

  // --- merged snapshot relation ------------------------------------------

  private def nodes(plan: LogicalPlan): Int = plan.collect { case n => n }.size

  private def hasInList(plan: LogicalPlan): Boolean =
    plan.exists(_.expressions.exists(_.exists {
      case _: In | _: InSet => true
      case _ => false
    }))

  private def sortedRows(df: DataFrame): Seq[String] = df.collect().map(_.toString).toSeq.sorted

  test("the snapshot plan does not grow with the delta and embeds no key list") {
    val s = freshStore(100)
    s.upsertProducts((0 until 10).map(i => SafetyRating(f"K$i%05d", "A")))
    val small = s.snapshot().queryExecution
    (10 until 10000).foreach(i => s.upsertProducts(Seq(SafetyRating(f"K$i%05d", "A"))))
    val large = s.snapshot().queryExecution
    assert(s.deltaSize == 10000)
    assert(nodes(large.logical) == nodes(small.logical))
    assert(nodes(large.optimizedPlan) == nodes(small.optimizedPlan))
    for (qe <- Seq(small, large); plan <- Seq(qe.logical, qe.optimizedPlan))
      assert(!hasInList(plan), plan.treeString)
    assert(s.snapshot().count() == 10100)
  }

  test("the merged snapshot equals an anti-join of the base plus the delta") {
    val s = freshStore(30)
    val baseKeys = s.staticSnapshot.select("country_code").collect().map(_.getString(0))
    val upserts = Seq(
      SafetyRating(baseKeys(0), "X1"), SafetyRating("NEW1", "X2"),
      SafetyRating(baseKeys(1), "X3"), SafetyRating(baseKeys(0), "X4"), SafetyRating("NEW2", "X5"))
    upserts.foreach(u => s.upsertProducts(Seq(u)))

    val last = upserts.groupMapReduce(_.country_code)(identity)((_, b) => b).values.toSeq
    val deltaDf = spark.createDataFrame(last)
    val expected = s.staticSnapshot.join(deltaDf.select("country_code"), Seq("country_code"), "left_anti")
      .unionByName(deltaDf)
    val snap = s.snapshot()
    assert(sortedRows(snap) == sortedRows(expected))
    val replaced = snap.where(s"country_code = '${baseKeys(0)}'").collect()
    assert(replaced.map(_.getString(1)).toSeq == Seq("X4"))
    assert(snap.count() == 32)
  }

  test("soak: 20 000 single-key upserts between largest_religions jobs stay oracle-equal and flat") {
    val stores = TestRefs.small(spark)
    val store = stores.religiousPopulations
    val tweets = spark.createDataFrame(TweetData.localTweets(420, seed = 3))
    // The content every snapshot must have, kept apart from the store.
    val expected = mutable.LinkedHashMap.empty[String, ReligiousPopulation]
    TweetData.localReligiousPopulations(400).foreach(r => expected(r.rid) = r)
    assert(store.staticSnapshot.count() == expected.size)

    // Upsert i adds a religion that becomes its country's largest; every
    // tenth demotes an earlier one, replacing a key already in the delta.
    def upsertRow(i: Int): ReligiousPopulation =
      if (i % 10 == 9) ReligiousPopulation(s"soak${i - 5}", TweetData.countries((i - 5) % TweetData.NCountries),
        s"soak${i - 5}", 1L)
      else ReligiousPopulation(s"soak$i", TweetData.countries(i % TweetData.NCountries), s"soak$i", 2000000L + i)

    /** One computing job; returns its duration in ms after checking it. */
    def job(): Double = {
      val j0 = System.nanoTime()
      val enriched = Enrichments.largestReligions(tweets, stores.snapshot)
      val rows = JobExecution.collectAndRelease(enriched)
      val ms = (System.nanoTime() - j0) / 1e6
      val out = spark.createDataFrame(rows.asJava, enriched.schema).select("id", "largest_religions")
      Oracle.assertEquivalent(out,
        """SELECT t.id AS id, COALESCE(lr.largest_religions, '') AS largest_religions
          |FROM tweets t LEFT JOIN (
          |  SELECT country_name,
          |         string_agg(religion_name, ',' ORDER BY rnk) AS largest_religions
          |  FROM (SELECT country_name, religion_name,
          |               row_number() OVER (PARTITION BY country_name
          |                 ORDER BY CAST(population AS BIGINT) DESC, religion_name) AS rnk
          |        FROM pops) x
          |  WHERE rnk <= 3 GROUP BY country_name) lr
          |ON t.country = lr.country_name""".stripMargin,
        "tweets" -> tweets.select("id", "country"),
        "pops" -> spark.createDataFrame(expected.values.toSeq))
      ms
    }

    job() // unmeasured: warms the job's code paths
    val periods = (0 until 20).map { round =>
      (round * 1000 until (round + 1) * 1000).foreach { i =>
        val r = upsertRow(i)
        store.upsertProducts(Seq(r))
        expected(r.rid) = r
      }
      job()
    }
    assert(store.version == 20000)
    assert(store.deltaSize == expected.size - 400)
    // Medians of three jobs, so one GC pause does not decide the check.
    def median3(ps: Seq[Double]): Double = ps.sorted.apply(1)
    val (first, last) = (median3(periods.take(3)), median3(periods.takeRight(3)))
    assert(last <= 3 * first, s"job period rose from $first ms to $last ms: ${periods.map(_.round)}")
  }
}
