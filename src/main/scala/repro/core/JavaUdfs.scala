package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}

import repro.spatial.Spatial
import repro.text.Text

/** The paper's *Java UDF* evaluation model: per-record functions over
  * in-memory state loaded from resource files at initialization (Figure 7).
  *
  * Here "initialization" is applying a [[byName]] entry to a reference
  * snapshot ([[compile]]) — it collects the data it needs into plain Scala
  * structures (hash maps, arrays), and the returned closure enriches
  * records one at a time, exactly like `evaluate(IFunctionHelper)`. A
  * **static** pipeline compiles once at feed start (stale state forever,
  * the current-AsterixDB baseline); a **dynamic** pipeline re-compiles per
  * computing job (reference updates visible per batch).
  *
  * Per the paper, the Java monument lookup has no R-Tree: it scans the full
  * monument array per record, which is why the indexed SQL++ variant beats
  * it in Figure 25.
  *
  * Output formats match the SQL++ analogs in [[Enrichments]] exactly, so
  * tests can assert Java ≡ SQL++ row-for-row.
  */
object JavaUdfs {

  /** The use cases with a Java implementation (the paper benchmarks Java
    * for use cases 1–5 plus the UDF-2 safety check), each as a function
    * that loads the state it needs from a reference snapshot and returns
    * the per-record enrichment of a batch.
    */
  val byName: Map[String, Refs => DataFrame => DataFrame] = Map(
    "tweet_safety_check" -> { refs =>
      // Figure 7: country -> keyword list.
      val kw = refs.sensitiveWords.select("country", "word").collect()
        .groupBy(_.getString(0)).view.mapValues(_.map(_.getString(1)).toVector).toMap
      val f = udf((country: String, text: String) =>
        if (kw.getOrElse(country, Vector.empty).exists(text.contains)) "Red" else "Green")
      df => df.withColumn("safety_check_flag", f(col("country"), col("text")))
    },
    "high_risk_check" -> { refs =>
      val top10 = refs.sensitiveWords.select("country").collect()
        .groupBy(_.getString(0)).view.mapValues(_.size).toSeq
        .sortBy { case (c, n) => (-n, c) }.take(10).map(_._1).toSet
      val f = udf((country: String) => if (top10.contains(country)) "Red" else "Green")
      df => df.withColumn("high_risk_flag", f(col("country")))
    },
    "safety_rating" -> { refs =>
      val m = refs.safetyRatings.select("country_code", "safety_rating").collect()
        .map(r => r.getString(0) -> r.getString(1)).toMap
      val f = udf((country: String) => m.get(country))
      df => df.withColumn("safety_rating", f(col("country")))
    },
    "religious_population" -> { refs =>
      val m = refs.religiousPopulations.select("country_name", "population").collect()
        .groupBy(_.getString(0)).view.mapValues(_.map(_.getLong(1)).sum).toMap
      val f = udf((country: String) => m.get(country))
      df => df.withColumn("religious_population", f(col("country")))
    },
    "largest_religions" -> { refs =>
      val m = refs.religiousPopulations.select("country_name", "religion_name", "population").collect()
        .groupBy(_.getString(0)).view.mapValues { rows =>
          rows.map(r => (r.getString(1), r.getLong(2)))
            .sortBy { case (rel, pop) => (-pop, rel) }
            .take(3).map(_._1).mkString(",")
        }.toMap
      val f = udf((country: String) => m.getOrElse(country, ""))
      df => df.withColumn("largest_religions", f(col("country")))
    },
    "fuzzy_suspects" -> { refs =>
      val suspects = refs.suspects.select("sensitive_name", "religion_name").collect()
        .map(r => (r.getString(0), r.getString(1)))
      val f = udf { (screenName: String) =>
        val clean = Text.removeSpecial(screenName)
        suspects.iterator
          .filter { case (n, _) => Text.editDistanceLessThan(clean, n, 5) }
          .map { case (n, r) => s"$n:$r" }
          .toVector.sorted.mkString(",")
      }
      df => df.withColumn("related_suspects", f(col("screen_name")))
    },
    "nearby_monuments" -> { refs =>
      // No index in the Java path: full scan of the monument array per record.
      val monuments = refs.monuments.select("monument_id", "monument_x", "monument_y").collect()
        .map(r => (r.getString(0), r.getDouble(1), r.getDouble(2)))
      val f = udf { (lat: Double, lon: Double) =>
        monuments.iterator
          .filter { case (_, x, y) => Spatial.circleContains(lat, lon, 1.5, x, y) }
          .map(_._1).toVector.sorted.mkString(",")
      }
      df => df.withColumn("nearby_monuments", f(col("latitude"), col("longitude")))
    })

  val supported: Set[String] = byName.keySet

  /** Loads the state `name` needs from `refs` and returns the per-record
    * enrichment of a batch.
    */
  def compile(name: String, refs: Refs): DataFrame => DataFrame =
    byName.getOrElse(name, throw new IllegalArgumentException(
      s"no Java UDF implementation for '$name' (supported: ${supported.toSeq.sorted.mkString(", ")})"))(refs)
}
