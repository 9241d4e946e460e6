package repro

import org.apache.spark.sql.functions.{count, lit}

import repro.data.TweetData

/** Sanity coverage of the DuckDB oracle harness itself (the rest of the
  * suite leans on it), over a per-country count of generated tweets.
  */
class OracleSpec extends SparkSpec {

  private lazy val tweets = TweetData.tweets(spark, 500)
  private val countSql = "SELECT country AS country, count(*) AS cnt FROM tweets GROUP BY country"

  test("oracle accepts a correct aggregate") {
    val agg = tweets.groupBy("country").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg, countSql, "tweets" -> tweets)
  }

  test("oracle rejects a wrong result") {
    val wrong = tweets.groupBy("country").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, countSql, "tweets" -> tweets)
    }
  }

  test("oracle rejects column-name mismatches") {
    val agg = tweets.groupBy("country").agg(count(lit(1)) as "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg, countSql, "tweets" -> tweets)
    }
  }
}
