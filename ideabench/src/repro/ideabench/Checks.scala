package repro.ideabench

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{StringType, StructField, StructType}

import repro.Oracle
import repro.core.RefStoreSet
import repro.data.Tweet
import repro.data.TweetData.NCountries

/** The verdict on one run's stored dataset.
  *
  * @param failedJobs   computing jobs (0-based) whose rows are missing,
  *                     duplicated, stale or different from the oracle
  * @param freshnessNs  per shown upsert: acknowledgement to the onBatchDone of
  *                     the first job whose stored rows show it
  * @param unshown      upserts due to show that no later job's rows could show
  *                     (no tweet of their country followed)
  */
final case class Verdict(
    jobs: Int,
    failedJobs: Set[Int],
    notes: Seq[String],
    freshnessNs: IndexedSeq[Long] = Vector.empty,
    unshown: Int = 0) {
  def correct: Boolean = failedJobs.isEmpty && notes.isEmpty
}

/** Result checks, run after the timed window. Job k stored tweets
  * `[k * batch, (k + 1) * batch)`: the feed frames tweets in id order.
  */
object Checks {

  /** Time the per-job oracle pass may take after a failed whole-run pass;
    * jobs it does not reach count as failed.
    */
  val PerJobOracleBudgetNs = 60L * 1000 * 1000 * 1000

  def verify(spark: SparkSession, wl: Workload, tweets: IndexedSeq[Tweet], run: RunResult,
             stores: RefStoreSet): Verdict = {
    val nJobs = (tweets.size + wl.batch - 1) / wl.batch
    val notes = mutable.ArrayBuffer.empty[String]
    if (run.doneNs.size != nJobs) notes += s"${run.doneNs.size} computing jobs ran, expected $nJobs"
    if (run.sink.count == 0) return Verdict(nJobs, (0 until nJobs).toSet, notes.toSeq :+ "nothing stored")

    val stored = run.sink.toDf(spark)
    val rows = stored.collect().toSeq
    val schema = stored.schema
    val failed = mutable.Set.empty[Int] ++ exactlyOnce(rows, schema, tweets, wl.batch)
    lazy val refs = stores.snapshot
    def jobOf(r: Row): Int = (r.getAs[Long]("id") / wl.batch).toInt

    wl.udf match {
      case "safety_rating" =>
        val countries = tweets.map(_.country).distinct
        failed ++= keyedOracle(spark, rows.groupBy(jobOf), schema, _.getAs[String]("country"),
          Seq("safety_rating"),
          """SELECT k.k AS k, s.safety_rating AS safety_rating
            |FROM keys k LEFT JOIN ratings s ON k.k = s.country_code""".stripMargin,
          "ratings" -> refs.safetyRatings.where(col("country_code").isin(countries: _*)))
        Verdict(nJobs, failed.toSet, notes.toSeq)
      case "tweet_context" =>
        val districts = refs.districts.collect().map(d => (d.getAs[String]("district_area_id"),
          d.getAs[Double]("x_min"), d.getAs[Double]("y_min"), d.getAs[Double]("x_max"), d.getAs[Double]("y_max")))
        def district(r: Row): String = {
          val (x, y) = (r.getAs[Double]("latitude"), r.getAs[Double]("longitude"))
          districts.find { case (_, x0, y0, x1, y1) => x >= x0 && x < x1 && y >= y0 && y < y1 }.map(_._1).orNull
        }
        failed ++= keyedOracle(spark, rows.groupBy(jobOf), schema, district,
          Seq("area_avg_income", "area_facilities", "ethnicity_dist"), TweetContextSql,
          "districts" -> refs.districts, "incomes" -> refs.averageIncomes,
          "facilities" -> refs.facilities, "residents" -> refs.residents)
        Verdict(nJobs, failed.toSet, notes.toSeq)
      case "largest_religions" =>
        val churn = new ChurnCheck(wl.batch, run, stores.religiousPopulations.staticSnapshot.collect(),
          rows.map(r => (r.getAs[Long]("id"), r.getAs[String]("country"), r.getAs[String]("largest_religions"))))
        failed ++= churn.failedJobs
        if (churn.freshnessNs.isEmpty) notes += "no stored row showed an upsert"
        Verdict(nJobs, failed.toSet, notes.toSeq, churn.freshnessNs, churn.unshown)
      case other => throw new IllegalArgumentException(s"no result check for $other")
    }
  }

  /** Jobs with a tweet missing or stored more than once, that stored an id
    * they were never fed, or whose stored tweet columns differ from the fed
    * tweet.
    */
  private def exactlyOnce(rows: Seq[Row], schema: StructType, tweets: IndexedSeq[Tweet], batch: Int): Set[Int] = {
    val seen = new Array[Int](tweets.size)
    val bad = mutable.Set.empty[Int]
    val fields = TweetFields.map(schema.fieldIndex)
    rows.foreach { r =>
      val id = r.getLong(fields.head)
      if (id >= 0 && id < tweets.size) {
        seen(id.toInt) += 1
        val t = tweets(id.toInt)
        if (fields.map(r.get) != t.productIterator.toSeq) bad += id.toInt / batch
      } else bad += math.max(0L, math.min(id / batch, (tweets.size - 1) / batch)).toInt
    }
    seen.indices.foreach(i => if (seen(i) != 1) bad += i / batch)
    bad.toSet
  }

  private val TweetFields = Seq("id", "text", "country", "latitude", "longitude", "created_at",
    "user_name", "screen_name")

  /** Checks enrichment columns that are a function of one key per tweet
    * (its country, its district). DuckDB evaluates the UDF's query over the
    * distinct keys the fed tweets have; the stored rows must map each key to
    * exactly one value, and the distinct (key, value) pairs must equal
    * DuckDB's. When the whole run fails, each job is checked alone.
    *
    * @param sql the UDF's query over a table `keys(k)` and the reference tables
    */
  private def keyedOracle(spark: SparkSession, byJob: Map[Int, Seq[Row]], schema: StructType,
                          key: Row => String, valueCols: Seq[String], sql: String,
                          refs: (String, DataFrame)*): Set[Int] = {
    val outSchema = StructType(StructField("k", StringType) +: valueCols.map(schema(_)))
    def ok(rows: Seq[Row]): Boolean = {
      val pairs = rows.map(r => Row.fromSeq(key(r) +: valueCols.map(r.getAs[Any]))).distinct
      val functional = pairs.groupBy(_.get(0)).forall(_._2.size == 1)
      val keys = spark.createDataFrame(pairs.map(p => Row(p.get(0))).asJava,
        StructType(Seq(StructField("k", StringType))))
      functional && (try {
        Oracle.assertEquivalent(spark.createDataFrame(pairs.asJava, outSchema), sql, ("keys" -> keys) +: refs: _*)
        true
      } catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"[ideabench] oracle mismatch: ${e.getMessage}")
          false
      })
    }
    if (ok(byJob.values.flatten.toSeq)) Set.empty
    else {
      val deadline = System.nanoTime() + PerJobOracleBudgetNs
      byJob.toSeq.sortBy(_._1).collect {
        case (k, rows) if System.nanoTime() > deadline || !ok(rows) => k
      }.toSet
    }
  }

  private val TweetContextSql =
    """WITH per_district AS (
      |  SELECT did, kind, string_agg(s, ',' ORDER BY s) AS v FROM (
      |    SELECT d.district_area_id AS did, 'f' AS kind,
      |           f.facility_type || ':' || CAST(count(*) AS VARCHAR) AS s
      |    FROM facilities f JOIN districts d
      |      ON CAST(f.facility_x AS DOUBLE) >= CAST(d.x_min AS DOUBLE)
      |     AND CAST(f.facility_x AS DOUBLE) <  CAST(d.x_max AS DOUBLE)
      |     AND CAST(f.facility_y AS DOUBLE) >= CAST(d.y_min AS DOUBLE)
      |     AND CAST(f.facility_y AS DOUBLE) <  CAST(d.y_max AS DOUBLE)
      |    GROUP BY d.district_area_id, f.facility_type
      |    UNION ALL
      |    SELECT d.district_area_id AS did, 'e' AS kind,
      |           p.ethnicity || ':' || CAST(count(*) AS VARCHAR) AS s
      |    FROM residents p JOIN districts d
      |      ON CAST(p.x AS DOUBLE) >= CAST(d.x_min AS DOUBLE)
      |     AND CAST(p.x AS DOUBLE) <  CAST(d.x_max AS DOUBLE)
      |     AND CAST(p.y AS DOUBLE) >= CAST(d.y_min AS DOUBLE)
      |     AND CAST(p.y AS DOUBLE) <  CAST(d.y_max AS DOUBLE)
      |    GROUP BY d.district_area_id, p.ethnicity) x
      |  GROUP BY did, kind)
      |SELECT k.k AS k,
      |  CAST(i.average_income AS DOUBLE) AS area_avg_income,
      |  COALESCE(f.v, '') AS area_facilities,
      |  COALESCE(e.v, '') AS ethnicity_dist
      |FROM keys k
      |LEFT JOIN incomes i ON i.district_area_id = k.k
      |LEFT JOIN per_district f ON f.did = k.k AND f.kind = 'f'
      |LEFT JOIN per_district e ON e.did = k.k AND e.kind = 'e'""".stripMargin
}

/** The churn workload's oracle. Upsert `i` carries the highest population
  * so far for its country, so the rows a job stores for country `c` show the
  * newest upsert `j` for `c` that its snapshot held; the three largest
  * religions are then the newest (up to three) upserts for `c` up to `j`,
  * then the base rows by population descending, religion ascending.
  *
  * A job `k` fails when a row shows a different value, shows an upsert that
  * had not begun before the job ended, or is stale: it shows an older
  * upsert than the newest for its country acknowledged before job `k - 1`'s
  * onBatchDone (the run() call, for the first job).
  *
  * @param rows stored (id, country, largest_religions)
  */
final class ChurnCheck(batch: Int, run: RunResult, base: Array[Row], rows: Seq[(Long, String, String)]) {
  private val upserts = run.upserts
  private val done = run.doneNs

  private val baseTop: Map[String, Seq[String]] = base
    .map(r => (r.getAs[String]("country_name"), r.getAs[String]("religion_name"), r.getAs[Long]("population")))
    .groupBy(_._1)
    .map { case (c, rs) => c -> rs.sortBy(r => (-r._3, r._2)).take(3).map(_._2).toSeq }

  private def expected(country: String, newest: Int): String = {
    val ups = Iterator.iterate(newest)(_ - NCountries).takeWhile(_ >= 0).take(3).map(Updater.religion).toSeq
    (ups ++ baseTop.getOrElse(country, Nil)).take(3).mkString(",")
  }

  /** Newest upsert index for `country` acknowledged before `t`, or -1. */
  private def newestAckedBefore(country: String, t: Long): Int =
    upserts.reverseIterator.find(u => u.ackNs < t && u.country == country).map(_.index).getOrElse(-1)

  /** Upsert shown by a stored value: its first entry when that is one, else -1. */
  private def shown(value: String): Int = {
    val first = value.takeWhile(_ != ',')
    if (first.startsWith("upd")) first.drop(3).toIntOption.getOrElse(Int.MinValue) else -1
  }

  private def rowOk(k: Int, country: String, value: String): Boolean = {
    val prevDone = if (k == 0) run.t0 else done(k - 1)
    val j = shown(value)
    j >= newestAckedBefore(country, prevDone) &&
      (j == -1 || (j < upserts.size && upserts(j).country == country && upserts(j).startNs < done(k))) &&
      value == expected(country, j)
  }

  private val byJob: Map[Int, Seq[(Long, String, String)]] =
    rows.groupBy(r => (r._1 / batch).toInt).filter(_._1 < done.size)

  /** Jobs with a row that fails the check. Rows of jobs that never signalled
    * onBatchDone are counted by the job-count check instead.
    */
  val failedJobs: Set[Int] =
    byJob.collect { case (k, rs) if !rs.forall(r => rowOk(k, r._2, r._3)) => k }.toSet

  /** Per job: country -> newest upsert its rows show. */
  private val shownByJob: IndexedSeq[Map[String, Int]] = done.indices.map { k =>
    byJob.getOrElse(k, Nil).groupBy(_._2).map { case (c, rs) => c -> rs.map(r => shown(r._3)).max }
  }

  /** Upserts acknowledged before the second-to-last onBatchDone: the last
    * job at the latest must show each.
    */
  private val due = {
    val cutoff = if (done.size >= 2) done(done.size - 2) else run.t0
    upserts.filter(_.ackNs < cutoff)
  }

  /** Per due upsert that some job shows: acknowledgement to the onBatchDone
    * of the first job whose rows show it.
    */
  val freshnessNs: IndexedSeq[Long] = due.flatMap { u =>
    shownByJob.indexWhere(_.get(u.country).exists(_ >= u.index)) match {
      case -1 => None
      case k => Some(done(k) - u.ackNs)
    }
  }

  /** Due upserts no job's rows show: no tweet of their country followed. */
  val unshown: Int = due.size - freshnessNs.size
}
