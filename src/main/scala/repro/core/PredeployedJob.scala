package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The ad-hoc baseline of the predeployed-job optimization (paper §5.1).
  * A predeployed computing job is optimized and compiled *once*, then each
  * batch arrival only sends an invocation with new parameters — a
  * prepared-query analog. Here the predeployed side is [[ComputingJob]],
  * the job the framework runs: built once per feed, though each call still
  * analyzes and optimizes a fresh plan. The **ad-hoc** path re-registers
  * temp views and re-parses / re-analyzes the full SQL text on every
  * invocation, which is what repeatedly submitted insert statements cost
  * (paper §4.2.1–§4.2.2). The bench compares the two over many invocations.
  */
object PredeployedJob {

  /** SQL texts for the ad-hoc path (the subset of enrichments the
    * predeployed-vs-adhoc bench exercises). `__batch` is the per-invocation
    * batch view; reference views are bound per invocation too, mirroring a
    * fresh INSERT..SELECT statement compilation. The hints give the same
    * join strategy as [[Enrichments]], so the two paths differ only in
    * parse/analyze cost.
    */
  val adhocSql: Map[String, String] = Map(
    "safety_rating" ->
      """SELECT /*+ BROADCAST(s) */ t.*, s.safety_rating
        |FROM __batch t LEFT JOIN __safety_ratings s ON t.country = s.country_code""".stripMargin,
    "religious_population" ->
      """SELECT /*+ BROADCAST(p) */ t.*, p.religious_population
        |FROM __batch t LEFT JOIN (
        |  SELECT country_name, SUM(population) AS religious_population
        |  FROM __religious_populations GROUP BY country_name
        |) p ON t.country = p.country_name""".stripMargin)

  /** Re-parse and re-analyze the statement on every invocation. */
  def adhoc(spark: SparkSession, name: String, refs: () => Refs): DataFrame => DataFrame = {
    val sqlText = adhocSql.getOrElse(name,
      throw new IllegalArgumentException(s"no ad-hoc SQL for '$name'"))
    batch => {
      val r = refs()
      batch.createOrReplaceTempView("__batch")
      r.safetyRatings.createOrReplaceTempView("__safety_ratings")
      r.religiousPopulations.createOrReplaceTempView("__religious_populations")
      spark.sql(sqlText) // parse + analyze + optimize, every time
    }
  }
}
